package experiments

import (
	"context"
	"strings"
	"testing"

	"capsim/internal/flight"
	"capsim/internal/workload"
)

// zooTestConfig is the smallest budget the zoo runs at: 60 intervals, long
// enough for every contender to leave its bootstrap phase.
func zooTestConfig() Config {
	cfg := DefaultConfig()
	cfg.QueueInstrs = 10_000
	return cfg
}

// TestZooPassInvariants pins one cell's regret accounting: the oracle column
// has zero regret by construction, every other column's regret is
// non-negative, and the cell publishes exactly oracle + fixed baselines +
// contenders.
func TestZooPassInvariants(t *testing.T) {
	cfg := zooTestConfig()
	intervals := zooIntervals(cfg)
	runs, err := zooPass(context.Background(), cfg, workload.MustByName("flutter"), 50, intervals)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + len(zooSizes) + len(zooContenders())
	if len(runs) != want {
		t.Fatalf("%d runs published, want %d", len(runs), want)
	}
	kinds := map[string]int{}
	for _, r := range runs {
		kinds[r.Meta.Kind]++
		if r.End.Intervals != intervals {
			t.Errorf("%s/%s: %d intervals, want %d", r.Meta.Policy, r.Meta.Kind, r.End.Intervals, intervals)
		}
		if r.End.CumRegretNS < 0 || r.MaxRegretNS < 0 {
			t.Errorf("%s/%s: negative regret (%v, %v)", r.Meta.Policy, r.Meta.Kind, r.End.CumRegretNS, r.MaxRegretNS)
		}
		if r.Meta.Kind == flight.KindOracle {
			if r.Meta.Policy != "oracle" || r.End.CumRegretNS != 0 || r.MaxRegretNS != 0 {
				t.Errorf("oracle with non-zero regret: %+v", r)
			}
		}
	}
	if kinds[flight.KindOracle] != 1 || kinds[flight.KindFixed] != len(zooSizes) || kinds[flight.KindRace] != len(zooContenders()) {
		t.Errorf("kind census %v", kinds)
	}
}

// TestZooExperiment runs the full driver at the smoke budget and pins the
// rendered shape plus repeated-pass byte-identity (the contract the
// study-cache/report gates build on).
func TestZooExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo race is slow")
	}
	cfg := zooTestConfig()
	res, err := Run("zoo", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 3 || len(res.Figures) != 0 || len(res.Notes) != 0 {
		t.Fatalf("zoo shape: %d tables %d figures %d notes", len(res.Tables), len(res.Figures), len(res.Notes))
	}
	for i, id := range []string{"league", "dwell", "summary"} {
		if res.Tables[i].ID != id {
			t.Errorf("table %d is %q, want %q", i, res.Tables[i].ID, id)
		}
	}
	cells := len(zooApps()) * len(zooPenalties)
	wantRows := cells * (1 + len(zooSizes) + len(zooContenders()))
	if len(res.Tables[0].Rows) != wantRows {
		t.Errorf("league rows %d, want %d", len(res.Tables[0].Rows), wantRows)
	}
	// The league is ranked by total regret within each app: the first row of
	// every app block is an oracle run with zero total regret.
	for _, row := range res.Tables[0].Rows {
		if row[1] == "oracle" && row[9] != "0.0000" {
			t.Errorf("oracle row with regret %s", row[9])
		}
	}
	if !strings.Contains(res.Render(), "oracle") {
		t.Error("render missing oracle rows")
	}

	first := res.Render()
	ResetCaches()
	res2, err := Run("zoo", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second := res2.Render(); second != first {
		t.Errorf("zoo render not reproducible:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

package core

import (
	"context"
	"sync"
	"testing"

	"capsim/internal/flight"
	"capsim/internal/tech"
	"capsim/internal/workload"
)

// captureSink collects published runs in memory for inspection.
type captureSink struct {
	mu   sync.Mutex
	runs []capturedRun
}

type capturedRun struct {
	meta   flight.RunMeta
	events []flight.Event
	end    flight.RunEnd
}

func (s *captureSink) WriteRun(_ int64, meta flight.RunMeta, events []flight.Event, end flight.RunEnd) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs = append(s.runs, capturedRun{meta, append([]flight.Event(nil), events...), end})
	return nil
}

func (s *captureSink) WriteProgress(flight.Progress) error { return nil }

func (s *captureSink) byKind(kind string) []capturedRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []capturedRun
	for _, r := range s.runs {
		if r.meta.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}

// TestFlightRecorderEnginesExact drives all three interval engines with the
// recorder active: every published column must satisfy flight.CheckRun's
// exact-float invariants, results must be bit-identical to a recorder-off
// run, and the oracle column must lower-bound every fixed/trace column's
// time.
func TestFlightRecorderEnginesExact(t *testing.T) {
	b := workload.MustByName("vortex")
	sizes := []int{16, 64}
	const intervals = 120
	mk := func() *MultiPolicy {
		mp, err := NewMultiPolicy(b, 1998, sizes, 2000, 40, tech.Micron018)
		if err != nil {
			t.Fatal(err)
		}
		return mp
	}

	// Recorder-off reference results.
	ResetPolicyFamilies()
	mp := mk()
	ctx := context.Background()
	refTraces, err := mp.Traces(ctx, intervals)
	if err != nil {
		t.Fatal(err)
	}
	refFixed, err := mp.RunFixed(ctx, 1, intervals)
	if err != nil {
		t.Fatal(err)
	}
	ResetPolicyFamilies()
	refRace, err := mk().Race(ctx, []PolicySpec{{Policy: &IntervalPolicy{Configs: []int{0, 1}}}}, intervals)
	if err != nil {
		t.Fatal(err)
	}

	// Recorder-on pass.
	sink := &captureSink{}
	rctx := flight.WithCollector(ctx, flight.NewCollector(sink))
	ResetPolicyFamilies()
	mp = mk()
	recTraces, err := mp.Traces(rctx, intervals)
	if err != nil {
		t.Fatal(err)
	}
	recFixed, err := mp.RunFixed(rctx, 1, intervals)
	if err != nil {
		t.Fatal(err)
	}
	ResetPolicyFamilies()
	recRace, err := mk().Race(rctx, []PolicySpec{{Policy: &IntervalPolicy{Configs: []int{0, 1}}}}, intervals)
	if err != nil {
		t.Fatal(err)
	}

	// Bit-identical simulated results recorder-on/off.
	for i := range refTraces {
		for iv := range refTraces[i] {
			if refTraces[i][iv] != recTraces[i][iv] {
				t.Fatalf("trace %d iv %d diverged with recorder on", i, iv)
			}
		}
	}
	sameResult := func(a, b RunResult) bool {
		return a.Policy == b.Policy && a.Instrs == b.Instrs && a.TimeNS == b.TimeNS &&
			a.TPI == b.TPI && a.Switches == b.Switches
	}
	if !sameResult(refFixed, recFixed) {
		t.Fatalf("RunFixed diverged:\n off: %+v\n on:  %+v", refFixed, recFixed)
	}
	if !sameResult(refRace[0], recRace[0]) {
		t.Fatalf("Race diverged:\n off: %+v\n on:  %+v", refRace[0], recRace[0])
	}

	// Column inventory: one trace run per size + oracle + fixed + race.
	if n := len(sink.byKind(flight.KindTrace)); n != len(sizes) {
		t.Fatalf("got %d trace columns, want %d", n, len(sizes))
	}
	oracles := sink.byKind(flight.KindOracle)
	if len(oracles) != 1 {
		t.Fatalf("got %d oracle columns, want 1", len(oracles))
	}
	fixed := sink.byKind(flight.KindFixed)
	if len(fixed) != 1 || fixed[0].meta.Policy != "fixed(1)" {
		t.Fatalf("fixed column missing: %+v", fixed)
	}
	races := sink.byKind(flight.KindRace)
	if len(races) != 1 || races[0].meta.Policy != "interval-adaptive" {
		t.Fatalf("race column missing: %+v", races)
	}

	// The ledger's end summaries reproduce the engines' results exactly.
	if fixed[0].end.TimeNS != refFixed.TimeNS || fixed[0].end.TPI != refFixed.TPI ||
		fixed[0].end.Instrs != refFixed.Instrs || fixed[0].end.Switches != refFixed.Switches {
		t.Fatalf("fixed end %+v != engine result %+v", fixed[0].end, refFixed)
	}
	if races[0].end.TimeNS != refRace[0].TimeNS || races[0].end.TPI != refRace[0].TPI ||
		races[0].end.Switches != refRace[0].Switches {
		t.Fatalf("race end %+v != engine result %+v", races[0].end, refRace[0])
	}

	// Oracle lower-bounds every replay column's total time and carries zero
	// regret; every column replays CheckRun cleanly.
	oracleTime := oracles[0].end.TimeNS
	for _, r := range sink.runs {
		if err := flight.CheckRun(r.meta, r.events, r.end); err != nil {
			t.Fatalf("column %s/%s trips: %v", r.meta.Policy, r.meta.Kind, err)
		}
		if r.meta.Kind == flight.KindTrace || r.meta.Kind == flight.KindFixed {
			if r.end.TimeNS < oracleTime {
				t.Fatalf("column %s beats the oracle: %v < %v", r.meta.Policy, r.end.TimeNS, oracleTime)
			}
		}
	}
}

// TestFlightRecorderInactive pins the zero-overhead contract's correctness
// side: with no collector installed, the engines publish nothing.
func TestFlightRecorderInactive(t *testing.T) {
	ResetPolicyFamilies()
	b := workload.MustByName("turb3d")
	mp, err := NewMultiPolicy(b, 1998, []int{16, 64}, 2000, 40, tech.Micron018)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mp.Traces(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if _, err := mp.RunFixed(context.Background(), 1, 10); err != nil {
		t.Fatal(err)
	}
}

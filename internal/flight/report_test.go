package flight

import (
	"path/filepath"
	"strings"
	"testing"

	"capsim/internal/obs"
)

// writeTestLedger records an oracle column plus two policy columns with
// distinct regret and returns the path.
func writeTestLedger(t *testing.T, name string, extra ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	lw, err := CreateLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(lw)
	mo, eo, do := mkRun("oracle", KindOracle, 30, 0)
	c.PublishRun(mo, eo, do)
	// fixed(0) carries per-interval regret iv%3; fixed(1) adds switch
	// penalties on top, so it must rank below fixed(0).
	m0, e0, d0 := mkRun("fixed(0)", KindFixed, 30, 0)
	c.PublishRun(m0, e0, d0)
	m1, e1, d1 := mkRun("fixed(1)", KindFixed, 30, 8)
	c.PublishRun(m1, e1, d1)
	for _, p := range extra {
		m, e, d := mkRun(p, KindRace, 30, 2)
		c.PublishRun(m, e, d)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportRegretOrdering(t *testing.T) {
	path := writeTestLedger(t, "l.ndjson", "adaptive")
	in, err := ReadReportInput(path)
	if err != nil {
		t.Fatal(err)
	}
	out := Report([]ReportInput{in})

	// The league table ranks by total regret: oracle (zero) first, then
	// fixed(0), with penalty-burdened fixed(1) last.
	iOracle := strings.Index(out, "oracle")
	i0 := strings.Index(out, "fixed(0)")
	i1 := strings.Index(out, "fixed(1)")
	if iOracle < 0 || i0 < 0 || i1 < 0 {
		t.Fatalf("league table missing rows:\n%s", out)
	}
	if !(iOracle < i0 && i0 < i1) {
		t.Fatalf("league order wrong (oracle@%d fixed0@%d fixed1@%d):\n%s", iOracle, i0, i1, out)
	}
	for _, want := range []string{"league:", "dwell:", "summary:", "switches/1k_iv", "total_regret_ns"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// The same runs appearing in two ledger files are counted once.
func TestReportDedupAcrossLedgers(t *testing.T) {
	p1 := writeTestLedger(t, "a.ndjson")
	p2 := writeTestLedger(t, "b.ndjson")
	in1, err := ReadReportInput(p1)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := ReadReportInput(p2)
	if err != nil {
		t.Fatal(err)
	}
	out := Report([]ReportInput{in1, in2})
	if !strings.Contains(out, "3 runs (0 new)") {
		t.Fatalf("second ledger not deduplicated:\n%s", out)
	}
	if n := strings.Count(out, "fixed(0)"); n != 3 { // league + dwell + summary, once each
		t.Fatalf("fixed(0) appears %d times, want 3:\n%s", n, out)
	}
}

// Ledgers of one study recorded at two seeds hold different runs: the
// report keeps every run of both, and ranks otherwise-equal runs by seed.
func TestReportKeepsSeeds(t *testing.T) {
	var ins []ReportInput
	for _, seed := range []uint64{2, 1} {
		path := filepath.Join(t.TempDir(), "l.ndjson")
		lw, err := CreateLedger(path)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCollector(lw)
		for _, p := range []string{"fixed(0)", "fixed(1)"} {
			m, e, d := mkRun(p, KindFixed, 30, 0)
			m.Seed = seed
			c.PublishRun(m, e, d)
		}
		if err := lw.Close(); err != nil {
			t.Fatal(err)
		}
		in, err := ReadReportInput(path)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	out := Report(ins)
	if n := strings.Count(out, "2 runs (2 new)"); n != 2 {
		t.Fatalf("%d of 2 ledgers reported all runs new:\n%s", n, out)
	}
	runs := make([]RunSummary, 0, 4)
	for _, in := range ins {
		for _, r := range in.Ledger.Runs {
			runs = append(runs, Summarize(r.Meta, r.Events, r.End))
		}
	}
	SortRunSummaries(runs)
	// Regret ranks fixed(0) above fixed(1); seed breaks the tie within each.
	for i, want := range []uint64{1, 2, 1, 2} {
		if runs[i].Meta.Seed != want {
			t.Fatalf("run %d (%s) has seed %d, want %d", i, runs[i].Meta.Policy, runs[i].Meta.Seed, want)
		}
	}
}

// A run manifest rides along as provenance.
func TestReportAcceptsManifest(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "manifest.json")
	m := obs.NewManifest()
	if err := m.WriteFile(mpath); err != nil {
		t.Fatal(err)
	}
	in, err := ReadReportInput(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if in.Manifest == nil {
		t.Fatal("manifest not recognized")
	}
	lin, err := ReadReportInput(writeTestLedger(t, "l.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	out := Report([]ReportInput{in, lin})
	if !strings.Contains(out, "manifest "+mpath) {
		t.Fatalf("manifest provenance missing:\n%s", out)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"capsim/internal/experiments"
	"capsim/internal/obs"
	"capsim/internal/sweep"
)

// argSep separates arguments in FuzzParseArgs inputs, so one string encodes
// a whole command line, empty and space-bearing arguments included.
const argSep = "\x00"

// rejected are command lines parseArgs must refuse, each with a fragment of
// the expected error. They seed FuzzParseArgs too.
var rejected = []struct {
	args string
	want string
}{
	{"-experiment\x00fig7\x00-feature\x00NaN", "feature size NaN outside [0.01, 2] microns"},
	{"-experiment\x00fig7\x00-feature\x00+Inf", "outside [0.01, 2] microns"},
	{"-experiment\x00fig7\x00-feature\x00-Inf", "outside [0.01, 2] microns"},
	{"-experiment\x00fig7\x00-feature\x000", "outside [0.01, 2] microns"},
	{"-experiment\x00ablation-tlb\x00-feature\x001e-300", "feature size 1e-300 outside"},
	{"-experiment\x00fig7\x00-feature\x000.0099", "feature size 0.0099 outside"},
	{"-experiment\x00fig7\x00-feature\x002.01", "feature size 2.01 outside"},
	{"-experiment\x00fig7,bogus", `unknown experiment "bogus"`},
	{"-experiment\x00fig7,", `unknown experiment ""`},
	{"-experiment\x00all,fig7", `unknown experiment "all"`},
	{"-experiment\x00fig7\x00-parallel\x00-1", "-parallel must be >= 0"},
	{"-experiment\x00fig7\x00-cache-refs\x005", "CacheRefs 5 too small"},
	{"-experiment\x00fig7\x00fig9", `unexpected argument "fig9"`},
	{"-serve\x00:0", "flag provided but not defined: -serve"},
	{"-study-cache-budget\x001", "flag provided but not defined: -study-cache-budget"},
	{"-trace-budget\x001", "flag provided but not defined: -trace-budget"},
	{"-parallel\x00two", "invalid value"},
	{"-report\x00,", "no input files"},
	{"-seed\x001", "-experiment required"},
	{"-shard\x000/2\x00-experiment\x00fig7", "flag provided but not defined: -shard"},
	{"-experiment\x00fig7\x00-obs", "flag provided but not defined: -obs"},
	{"-experiment\x00fig10\x00-trace-out\x00x", "flag provided but not defined: -trace-out"},
	{"-experiment\x00fig10\x00-obs-assert", "flag provided but not defined: -obs-assert"},
}

// accepted are command lines parseArgs must take.
var accepted = []string{
	"-list",
	"-experiment\x00fig7",
	"-experiment\x00all\x00-parallel\x002\x00-seed\x001",
	"-experiment\x00fig12,fig13\x00-parallel\x000",
	"-experiment\x00fig7\x00-feature\x000.12\x00-cache-refs\x002000",
	"-experiment\x00fig7\x00-feature\x000.01",
	"-experiment\x00fig7\x00-feature\x002",
	"-report\x00a.ledger,b.json",
	"-serve-api\x00127.0.0.1:0\x00-api-cache\x002\x00-api-timeout\x005s",
	"-experiment\x00fig7,fig8,fig9\x00-study-cache\x00d",
	"-experiment\x00all\x00-study-cache\x00d\x00-metrics-out\x00m.json",
}

func TestParseArgs(t *testing.T) {
	for _, tc := range rejected {
		_, err := parseArgs(strings.Split(tc.args, argSep))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
	for _, args := range accepted {
		if _, err := parseArgs(strings.Split(args, argSep)); err != nil {
			t.Errorf("%q rejected: %v", args, err)
		}
	}
	rc, err := parseArgs([]string{"-experiment", "fig13,fig12"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rc.ids, ","); got != "fig13,fig12" {
		t.Errorf("ids %q, want the given order", got)
	}
	if got := len(flagMap(rc.fs)); got != 21 {
		t.Errorf("%d flags, want 21", got)
	}
}

// TestRunRejectsBeforeSimulating: a usage error exits 2 before any
// experiment runs and before the ledger or CPU profile file is created. An
// unknown id after a known one used to be found only once the known one had
// rendered.
func TestRunRejectsBeforeSimulating(t *testing.T) {
	dir := t.TempDir()
	ledger, prof := filepath.Join(dir, "run.ledger"), filepath.Join(dir, "cpu.pprof")
	for _, tc := range rejected {
		args := append(strings.Split(tc.args, argSep), "-ledger-out", ledger, "-cpuprofile", prof)
		err := run(args)
		ec, ok := err.(exitCoder)
		if !ok || ec.code != 2 {
			t.Errorf("%q: run = %v, want exit status 2", tc.args, err)
		}
		for _, p := range []string{ledger, prof} {
			if _, err := os.Stat(p); err == nil {
				t.Fatalf("%q: %s created before the usage error", tc.args, filepath.Base(p))
			}
		}
	}
	if err := run([]string{"-h"}); err != nil {
		t.Errorf("-h: %v, want exit status 0", err)
	}
}

// TestLedgerOutWarmStudyCache: -ledger-out over a warm -study-cache records
// the ledger a cold run records, header line aside. The rows whose compute
// publishes flight columns (qtrace, qpolicy, zoo) run fresh under a
// recorder, so a row the store serves never leaves a hole in the ledger.
func TestLedgerOutWarmStudyCache(t *testing.T) {
	dir := t.TempDir()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = devnull // the renders; the ledgers are what is compared
	defer func() { os.Stdout = stdout; devnull.Close() }()
	defer experiments.SetStudyCacheDir("")
	defer experiments.ResetCaches()
	var bodies []string
	for _, pass := range []string{"cold", "warm"} {
		experiments.ResetCaches() // process boundary: only the store carries rows
		ledger := filepath.Join(dir, pass+".ledger")
		err := run([]string{"-experiment", "ablation-interval,zoo", "-parallel", "1", "-interval", "400",
			"-queue-instrs", "15000", "-study-cache", filepath.Join(dir, "store"), "-ledger-out", ledger})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(ledger)
		if err != nil {
			t.Fatal(err)
		}
		_, body, _ := strings.Cut(string(raw), "\n")
		bodies = append(bodies, body)
	}
	if runs := strings.Count(bodies[0], `"t":"run"`); runs != 12+108 {
		t.Errorf("cold ledger records %d run columns, want 120", runs)
	}
	if bodies[1] != bodies[0] {
		t.Errorf("warm ledger records %d run columns in %d bytes, cold %d in %d",
			strings.Count(bodies[1], `"t":"run"`), len(bodies[1]), strings.Count(bodies[0], `"t":"run"`), len(bodies[0]))
	}
}

// footer matches the timing line printed after each render, the only
// stdout bytes allowed to differ between runs.
var footer = regexp.MustCompile(`(?m)^\(([a-z0-9-]+) in [0-9]+\.[0-9]s\)$`)

// smallBudgets are the flags of a whole registry run in about a second.
var smallBudgets = []string{"-cache-refs", "20000", "-cache-warm", "5000", "-queue-instrs", "10000", "-interval", "400"}

// stdoutOf runs capsim with args, as a fresh process would (empty in-memory
// caches), and returns what it printed on stdout.
func stdoutOf(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	experiments.ResetCaches()
	if err := run(args); err != nil {
		t.Fatalf("capsim %s: %v", strings.Join(args, " "), err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestParallelRunsPrintInRegistryOrder: -experiment all prints the same
// bytes at -parallel 1 and 2, footers aside, cold and against a warm
// -study-cache, with one footer per experiment in registry order. The
// cold -parallel 2 run's manifest lists its records in registry order, and
// its total wall, from the first start to the last end, is no more than the
// sum of the experiments' overlapping walls.
func TestParallelRunsPrintInRegistryOrder(t *testing.T) {
	dir := t.TempDir()
	defer experiments.SetStudyCacheDir("")
	defer experiments.ResetCaches()
	defer sweep.SetDefaultWorkers(0)
	defer obs.SetEnabled(obs.Enabled())
	manifest := filepath.Join(dir, "run.json")
	var ref string
	for _, pass := range []struct {
		parallel, store string
		metrics         bool
	}{
		{"1", "cold1", false}, {"2", "cold2", true}, // cold: a fresh store each
		{"1", "cold2", false}, {"2", "cold1", false}, // warm: the other's store
	} {
		args := append([]string{"-experiment", "all", "-parallel", pass.parallel, "-study-cache", filepath.Join(dir, pass.store)}, smallBudgets...)
		if pass.metrics {
			args = append(args, "-metrics-out", manifest)
		}
		out := stdoutOf(t, args...)
		var ids []string
		for _, m := range footer.FindAllStringSubmatch(out, -1) {
			ids = append(ids, m[1])
		}
		if !slices.Equal(ids, experiments.IDs()) {
			t.Fatalf("-parallel %s: footers for %v, want the registry %v", pass.parallel, ids, experiments.IDs())
		}
		out = footer.ReplaceAllString(out, "")
		if ref == "" {
			ref = out
		} else if out != ref {
			t.Errorf("-parallel %s over store %s printed %d bytes, unlike the first run's %d", pass.parallel, pass.store, len(out), len(ref))
		}
	}

	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var man obs.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	var ids []string
	var sum int64
	for _, r := range man.Experiments {
		ids = append(ids, r.ID)
		sum += r.WallNS
	}
	if !slices.Equal(ids, experiments.IDs()) {
		t.Errorf("manifest records %v, want the registry %v", ids, experiments.IDs())
	}
	if man.TotalWallNS <= 0 || man.TotalWallNS > sum {
		t.Errorf("total_wall_ns %d, want in (0, %d], the sum of the records' walls", man.TotalWallNS, sum)
	}
}

// TestSerialRunsOneExperimentAtATime: at one worker no two experiments are
// ever in flight together, at two no more than two, and the output is the
// same.
func TestSerialRunsOneExperimentAtATime(t *testing.T) {
	defer experiments.ResetCaches()
	rc, err := parseArgs(append([]string{"-experiment", "fig1a,fig7,fig8,fig10,fig11,fig12"}, smallBudgets...))
	if err != nil {
		t.Fatal(err)
	}
	var outs []string
	for _, workers := range []int{1, 2} {
		experiments.ResetCaches()
		var cur, peak atomic.Int32
		counting := func(ctx context.Context, id string, cfg experiments.Config) (experiments.Result, error) {
			n := cur.Add(1)
			defer cur.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			return experiments.RunCtx(ctx, id, cfg)
		}
		var buf bytes.Buffer
		if err := runExperiments(context.Background(), &buf, rc.ids, rc.cfg, workers, nil, counting); err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > int32(workers) || workers == 1 && p != 1 {
			t.Errorf("%d workers: %d experiments in flight at once", workers, p)
		}
		outs = append(outs, footer.ReplaceAllString(buf.String(), ""))
	}
	if outs[1] != outs[0] {
		t.Errorf("two workers printed %d bytes, one worker %d", len(outs[1]), len(outs[0]))
	}
}

// TestRunExperimentsStopsAtFirstError: an experiment's error is returned
// after every experiment before it has printed, nothing after it prints,
// and the experiments still in flight are cancelled.
func TestRunExperimentsStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var cancelled atomic.Int32
	cRuns := make(chan struct{})
	fake := func(ctx context.Context, id string, _ experiments.Config) (experiments.Result, error) {
		switch id {
		case "b":
			<-cRuns // fail while c is in flight
			return experiments.Result{}, boom
		case "c":
			close(cRuns)
			<-ctx.Done()
			cancelled.Add(1)
			return experiments.Result{}, ctx.Err()
		}
		return experiments.Result{ID: id, Title: id}, nil
	}
	var buf bytes.Buffer
	err := runExperiments(context.Background(), &buf, []string{"a", "b", "c", "d"}, experiments.DefaultConfig(), 3, nil, fake)
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want b's", err)
	}
	if got := footer.ReplaceAllString(buf.String(), ""); got != "=== a: a ===\n\n\n" {
		t.Errorf("printed %q, want a's render alone", got)
	}
	if cancelled.Load() != 1 {
		t.Errorf("c, in flight, was not cancelled")
	}
}

// FuzzParseArgs: parseArgs never panics, and every command line it accepts
// yields a runnable configuration — the budgets validate, the worker count
// is not negative, and every experiment id is registered.
func FuzzParseArgs(f *testing.F) {
	for _, tc := range rejected {
		f.Add(tc.args)
	}
	for _, args := range accepted {
		f.Add(args)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rc, err := parseArgs(strings.Split(s, argSep))
		if err != nil {
			return
		}
		if err := rc.cfg.Validate(); err != nil {
			t.Fatalf("%q accepted with invalid config: %v", s, err)
		}
		if rc.parallel < 0 {
			t.Fatalf("%q accepted with -parallel %d", s, rc.parallel)
		}
		for _, id := range rc.ids {
			if _, err := experiments.Title(id); err != nil {
				t.Fatalf("%q accepted unknown experiment %q", s, id)
			}
		}
	})
}

package main

import (
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain lets the test binary act as the harness's thin parent (spawn),
// as the harness binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == spawnArg {
		os.Exit(spawn(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// tinyInputs shrink every workload to a few seconds: a registry subset that
// still reaches every simulation layer, minimal budgets, one set-up, and a
// short API session of analytic and tiny-budget requests.
func tinyInputs() inputs {
	return inputs{
		experiments:   "ablation-combined,ablation-power,fig7,fig10,zoo",
		cacheRefs:     2000,
		cacheWarm:     0,
		queueInstrs:   2000,
		setupReps:     1,
		hot:           []apiRequest{{"experiment": "fig2"}, {"experiment": "fig1a"}},
		fresh:         []apiRequest{{"experiment": "fig7", "cache_refs": 2000, "cache_warm": 0}, {"experiment": "fig10", "queue_instrs": 2000}},
		traceRequests: apiBatch,
	}
}

func newTestBench(t *testing.T) *bench {
	t.Helper()
	prev := benchInputs
	benchInputs = tinyInputs()
	t.Cleanup(func() { benchInputs = prev })
	b, err := newBench(7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.close)
	return b
}

// checkEmitted fails unless the result carries exactly the metrics
// BENCHMARK.json declares, each with its declared unit.
func checkEmitted(t *testing.T, label string, r result, want []specMetric, nonZero bool) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json declares %d", label, len(r.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := r.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", label, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", label, w.Name, m.Unit, w.Unit)
		case nonZero && m.Value <= 0:
			t.Errorf("%s: %s = %v, want > 0", label, w.Name, m.Value)
		}
	}
}

// TestHarness runs every workload and the per-layer trace once at tiny
// budgets.
func TestHarness(t *testing.T) {
	b := newTestBench(t)
	s, err := readSpec(b.root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		o, err := w.run(b)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		r := o.result(false)
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %s", w.name, r.Correct, r.Attempted, r.Failed, strings.Join(o.problems, "; "))
		}
		checkEmitted(t, w.name, r, s.EndToEnd, true)
	}

	o, err := b.traceRun()
	if err != nil {
		t.Fatal(err)
	}
	r := o.result(true)
	if !r.Correct {
		t.Errorf("trace: %s", strings.Join(o.problems, "; "))
	}
	checkEmitted(t, "trace", r, s.PerLayer, false)
	m := o.metrics
	sum := m["other_ms"]
	for _, k := range []string{
		"trace.gen_ms", "trace.decode_ms", "classify.ms", "cache.ms", "ooo.ms", "core.race_ms",
		"memo.write_ms", "experiments.compose_ms", "experiments.render_ms",
	} {
		if m[k] <= 0 {
			t.Errorf("trace: %s = %v, want > 0", k, m[k])
		}
		sum += m[k]
	}
	if math.Abs(sum-m["serial_wall_ms"]) > 1e-6*m["serial_wall_ms"] {
		t.Errorf("layer self times plus other_ms = %v ms, serial wall %v ms", sum, m["serial_wall_ms"])
	}
	for _, k := range []string{"trace.leak_chunks", "ooo.leak_instrs", "classify.leak_gens"} {
		if m[k] != 0 {
			t.Errorf("trace: %s = %v, want 0", k, m[k])
		}
	}
}

// TestCorruptRenderFails: a render that differs from the reference must
// count as a failed operation.
func TestCorruptRenderFails(t *testing.T) {
	b := newTestBench(t)
	var calls atomic.Int64
	tamper = func(out []byte) []byte {
		if calls.Add(1) == 1 {
			return out // the priming run's reference stays intact
		}
		c := append([]byte(nil), out...)
		c[len(c)/2] ^= 1
		return c
	}
	defer func() { tamper = nil }()
	o, err := b.registryWarm()
	if err != nil {
		t.Fatal(err)
	}
	if r := o.result(false); r.Correct || r.Failed == 0 {
		t.Fatalf("corrupted render: correct=%v failed=%d, want a failure", r.Correct, r.Failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) = [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) = [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles(sorted([]float64{3, 1, 2})); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

package capsim

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestFacadeBenchmarks(t *testing.T) {
	all := Benchmarks()
	if len(all) != 22 {
		t.Fatalf("%d benchmarks, want 22", len(all))
	}
	if _, err := BenchmarkByName("stereo"); err != nil {
		t.Error(err)
	}
	if _, err := BenchmarkByName("nonesuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestFacadeProfileQueue(t *testing.T) {
	b, err := BenchmarkByName("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	sizes := PaperQueueSizes()
	tpi, err := ProfileQueue(b, 1, sizes, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tpi) != len(sizes) {
		t.Fatalf("%d TPIs for %d sizes", len(tpi), len(sizes))
	}
	for i, v := range tpi {
		// IPC = cycle / TPI can never exceed the 8-wide issue width.
		cycle, err := QueueCycleNS(sizes[i])
		if err != nil {
			t.Fatal(err)
		}
		if v <= 0 || cycle/v > 8 {
			t.Errorf("IQ=%d: TPI %v at cycle %v", sizes[i], v, cycle)
		}
	}
	if _, err := ProfileQueue(b, 1, nil, 5000); err == nil {
		t.Error("empty size list accepted")
	}
	if _, err := ProfileQueue(b, 1, []int{16, 0}, 5000); err == nil {
		t.Error("zero queue size accepted")
	}
}

func TestFacadeProfileCache(t *testing.T) {
	b, err := BenchmarkByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	p := PaperCacheParams()
	tpi, miss, err := ProfileCache(b, 1, p, 1000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tpi) != 9 || len(miss) != 9 {
		t.Fatalf("tables of %d and %d slots, want 9 (boundaries 1-8 plus slot 0)", len(tpi), len(miss))
	}
	prev := 0.0
	for k := 1; k <= 8; k++ {
		if miss[k] < 0 || tpi[k] <= miss[k] {
			t.Errorf("k=%d: TPI %v, TPImiss %v", k, tpi[k], miss[k])
		}
		cycle, err := CacheCycleNS(p, k)
		if err != nil {
			t.Fatal(err)
		}
		if cycle <= prev {
			t.Errorf("k=%d: cycle %v not above k=%d's %v", k, cycle, k-1, prev)
		}
		prev = cycle
	}
	noMem, err := BenchmarkByName("go")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ProfileCache(noMem, 1, p, 0, 4000); err == nil {
		t.Error("application without a memory profile accepted")
	}
}

func TestFacadeRunQueue(t *testing.T) {
	b, err := BenchmarkByName("vortex")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sizes := []int{16, 64}
	res, err := RunQueue(ctx, b, 1, sizes, &IntervalPolicy{Configs: []int{0, 1}}, 100, 2000, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TPI <= 0 || res.Instrs < 100*2000 || res.Switches == 0 {
		t.Errorf("interval policy result %+v", res)
	}
	fixed, err := RunQueue(ctx, b, 1, sizes, FixedPolicy{Config: 1}, 100, 2000, -1)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Switches != 1 { // the initial move from sizes[0]
		t.Errorf("fixed policy switched %d times, want 1", fixed.Switches)
	}
	if _, err := RunQueue(ctx, b, 1, nil, FixedPolicy{}, 1, 2000, -1); err == nil {
		t.Error("empty size list accepted")
	}
	if _, err := RunQueue(ctx, b, 1, []int{-16}, FixedPolicy{}, 1, 2000, -1); err == nil {
		t.Error("negative queue size accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := RunQueue(cancelled, b, 1, sizes, &IntervalPolicy{Configs: []int{0, 1}}, 100, 2000, -1); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err %v, want %v", err, context.Canceled)
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := Experiments()
	if len(ids) < 14 {
		t.Fatalf("only %d experiments", len(ids))
	}
	cfg := DefaultExperimentConfig()
	res, err := RunExperiment("fig1a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "fig1a") {
		t.Error("render missing id")
	}
	if _, err := RunExperiment("nope", cfg); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestFacadeCycleTimesRejectBadInput: the cycle-time wrappers return an
// error for caller input the models do not cover instead of panicking, and
// never time a boundary the structure does not have.
func TestFacadeCycleTimesRejectBadInput(t *testing.T) {
	p := PaperCacheParams()
	lo, hi := p.Boundaries()
	for _, k := range []int{lo, hi} {
		if v, err := CacheCycleNS(p, k); err != nil || v <= 0 {
			t.Errorf("CacheCycleNS(k=%d) = %v, %v", k, v, err)
		}
	}
	for _, k := range []int{-1, 0, hi + 1, 99} {
		if v, err := CacheCycleNS(p, k); err == nil {
			t.Errorf("CacheCycleNS(k=%d) = %v, want an error", k, v)
		}
	}
	bad := p
	bad.Feature = 5
	if v, err := CacheCycleNS(bad, 1); err == nil {
		t.Errorf("CacheCycleNS at feature size 5 = %v, want an error", v)
	}
	bad = p
	bad.Increments = 1
	if v, err := CacheCycleNS(bad, 1); err == nil {
		t.Errorf("CacheCycleNS with one increment = %v, want an error", v)
	}

	if v, err := QueueCycleNS(1); err != nil || v <= 0 {
		t.Errorf("QueueCycleNS(1) = %v, %v", v, err)
	}
	for _, n := range []int{0, -16} {
		if v, err := QueueCycleNS(n); err == nil {
			t.Errorf("QueueCycleNS(%d) = %v, want an error", n, v)
		}
	}
}

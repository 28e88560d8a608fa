package core

import (
	"context"
	"testing"

	"capsim/internal/cache"
	"capsim/internal/tech"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// The oracles in this file are the per-configuration fan-outs the one-pass
// entry points replace: one private single-configuration machine per cell,
// each reading private workload generators instead of the shared trace
// stores, run serially. They share no state with the one-pass engines
// except the machine models themselves, so exact float64 equality between
// the two pins every one-pass shortcut — stream sharing, in-place decoding,
// classification replay, family memoization — to the direct simulation.

// coldTiers discards every memoized tier the one-pass engines build on, so
// a test never compares a pass against numbers an earlier test left behind.
func coldTiers() {
	trace.Reset()
	ResetPolicyFamilies()
}

// privateQueueMachine is NewQueueMachine reading a private instruction
// generator.
func privateQueueMachine(t *testing.T, b workload.Benchmark, seed uint64, sizes []int, initial, penaltyCycles int, f tech.FeatureSize) *QueueMachine {
	t.Helper()
	m, err := NewQueueMachine(b, seed, sizes, initial, penaltyCycles, f)
	if err != nil {
		t.Fatal(err)
	}
	m.stream = workload.NewInstrStream(b, seed)
	return m
}

// privateCacheMachine is NewCacheMachine reading a private reference
// generator.
func privateCacheMachine(t *testing.T, b workload.Benchmark, seed uint64, p cache.Params, maxBoundary, initial int) *CacheMachine {
	t.Helper()
	m, err := NewCacheMachine(b, seed, p, maxBoundary, initial, -1)
	if err != nil {
		t.Fatal(err)
	}
	m.refs = workload.NewAddressTrace(b, seed)
	return m
}

// oracleCacheTPI is ProfileCacheTPI as one private CacheMachine per
// boundary: warm up, discard the warm-up's accounting, measure.
func oracleCacheTPI(t *testing.T, b workload.Benchmark, seed uint64, p cache.Params, maxBoundary int, warm, refs int64) (tpi, tpiMiss []float64) {
	tpi = make([]float64, maxBoundary+1)
	tpiMiss = make([]float64, maxBoundary+1)
	for k := 1; k <= maxBoundary; k++ {
		m := privateCacheMachine(t, b, seed, p, maxBoundary, k)
		if warm > 0 {
			m.RunInterval(warm)
			m.instrs, m.timeNS, m.missNS = 0, 0, 0
		}
		m.RunInterval(refs)
		tpi[k], tpiMiss[k] = m.TotalTPI(), m.TotalTPIMiss()
	}
	return tpi, tpiMiss
}

// oracleQueueTPI is ProfileQueueTPI as one private QueueMachine per size.
func oracleQueueTPI(t *testing.T, b workload.Benchmark, seed uint64, sizes []int, instrs int64, f tech.FeatureSize) []float64 {
	out := make([]float64, len(sizes))
	for i := range sizes {
		m := privateQueueMachine(t, b, seed, sizes, i, -1, f)
		m.RunInterval(instrs)
		out[i] = m.TotalTPI()
	}
	return out
}

// oracleQueueTraces is ProfileQueueTraces as one private fixed-size
// QueueMachine per size, stepped interval by interval.
func oracleQueueTraces(t *testing.T, b workload.Benchmark, seed uint64, sizes []int, intervals, n int64, f tech.FeatureSize) [][]float64 {
	out := make([][]float64, len(sizes))
	for i, w := range sizes {
		m := privateQueueMachine(t, b, seed, []int{w}, 0, -1, f)
		out[i] = make([]float64, intervals)
		for iv := range out[i] {
			out[i][iv] = m.RunInterval(n).TPI
		}
	}
	return out
}

// oracleCombined is ProfileCombined as one private CombinedMachine per
// point.
func oracleCombined(t *testing.T, b workload.Benchmark, seed uint64, sizes []int, p cache.Params, maxBoundary int, points []CombinedConfig, intervals, n int64, f tech.FeatureSize) []float64 {
	out := make([]float64, len(points))
	for j, cc := range points {
		m, err := NewCombinedMachine(b, seed, sizes, p, maxBoundary, cc, -1, f)
		if err != nil {
			t.Fatal(err)
		}
		m.istream = workload.NewInstrStream(b, seed)
		m.refs = workload.NewAddressTrace(b, seed)
		for i := int64(0); i < intervals; i++ {
			m.RunInterval(n)
		}
		out[j] = m.TotalTPI()
	}
	return out
}

// TestProfileCacheTPIOnepass is the acceptance gate of the one-pass engine:
// ProfileCacheTPI, which evaluates all boundaries in one pass over the
// shared trace, must return the (TPI, TPImiss) tables of one
// independent machine per boundary. Equality is exact float64 equality, not
// approximate.
func TestProfileCacheTPIOnepass(t *testing.T) {
	p := cache.PaperParams()
	for _, name := range []string{"gcc", "compress", "swim"} {
		b := workload.MustByName(name)
		coldTiers()
		oneTPI, oneMiss, err := ProfileCacheTPI(b, 1998, p, PaperMaxBoundary, 20000, 80000)
		if err != nil {
			t.Fatalf("%s onepass: %v", name, err)
		}
		orcTPI, orcMiss := oracleCacheTPI(t, b, 1998, p, PaperMaxBoundary, 20000, 80000)
		if len(oneTPI) != len(orcTPI) || len(oneMiss) != len(orcMiss) {
			t.Fatalf("%s: length mismatch", name)
		}
		for k := 1; k <= PaperMaxBoundary; k++ {
			if oneTPI[k] != orcTPI[k] {
				t.Errorf("%s boundary %d: TPI onepass %v != oracle %v", name, k, oneTPI[k], orcTPI[k])
			}
			if oneMiss[k] != orcMiss[k] {
				t.Errorf("%s boundary %d: TPImiss onepass %v != oracle %v", name, k, oneMiss[k], orcMiss[k])
			}
		}
	}
}

// TestProfileQueueTPIOnepass checks the queue-side stream sharing: one
// MultiCore pass over the materialized instruction store must give the TPI
// of one private machine per size, bit for bit.
func TestProfileQueueTPIOnepass(t *testing.T) {
	b := workload.MustByName("gcc")
	sizes := PaperQueueSizes()
	coldTiers()
	one, err := ProfileQueueTPI(b, 1998, sizes, 30000, tech.Micron018)
	if err != nil {
		t.Fatalf("onepass: %v", err)
	}
	orc := oracleQueueTPI(t, b, 1998, sizes, 30000, tech.Micron018)
	for i := range sizes {
		if one[i] != orc[i] {
			t.Errorf("size %d: TPI onepass %v != oracle %v", sizes[i], one[i], orc[i])
		}
	}
}

// TestRunCacheOnepass drives a full policy-driven adaptive run (interval
// machine, clock switches and all) reading the shared store's cursor and
// reading a private generator, and demands bit-identical aggregates — the
// cursors must be indistinguishable from the generators even mid-run.
func TestRunCacheOnepass(t *testing.T) {
	p := cache.PaperParams()
	b := workload.MustByName("gcc")
	run := func(m *CacheMachine) CacheRunResult {
		configs := make([]int, PaperMaxBoundary)
		for i := range configs {
			configs[i] = i + 1
		}
		pol := &IntervalPolicy{Configs: configs}
		res, _ := RunCache(m, pol, 40, 2000)
		return res
	}
	coldTiers()
	shared, err := NewCacheMachine(b, 7, p, PaperMaxBoundary, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	one := run(shared)
	orc := run(privateCacheMachine(t, b, 7, p, PaperMaxBoundary, 2))
	if one.TPI != orc.TPI || one.TPIMiss != orc.TPIMiss ||
		one.Refs != orc.Refs || one.Switches != orc.Switches {
		t.Errorf("adaptive cache run diverged:\n shared:  %+v\n private: %+v", one, orc)
	}
}

// TestProfileCacheTPIOnepassErrors locks error propagation on the one-pass
// path (no memory profile, bad boundary).
func TestProfileCacheTPIOnepassErrors(t *testing.T) {
	trace.Reset()
	defer trace.Reset()
	p := cache.PaperParams()
	noMem := workload.Benchmark{Name: "synthetic", ILP: workload.MustByName("gcc").ILP}
	if _, _, err := ProfileCacheTPI(noMem, 1, p, PaperMaxBoundary, 0, 1000); err == nil {
		t.Error("missing memory profile accepted")
	}
	if _, _, err := ProfileCacheTPI(workload.MustByName("gcc"), 1, p, p.Increments, 0, 1000); err == nil {
		t.Error("out-of-range boundary accepted")
	}
}

// TestProfileCombinedOnepass is the acceptance gate of the joint kernel:
// ProfileCombined, which evaluates the whole (boundary × queue) grid in one
// MultiCombined pass, must return the per-point TPI of independent
// CombinedMachines. Exact float64 equality — the joint kernel replicates
// load placement, per-boundary hierarchy state, coupled clocks and the TPI
// arithmetic, not approximations of them.
func TestProfileCombinedOnepass(t *testing.T) {
	p := cache.PaperParams()
	sizes := []int{16, 64, 128}
	var points []CombinedConfig
	for _, k := range []int{1, 2, 6, 8} {
		for _, w := range sizes {
			points = append(points, CombinedConfig{QueueEntries: w, Boundary: k})
		}
	}
	intervals, n := int64(12), int64(2000)
	for _, name := range []string{"gcc", "swim"} {
		b := workload.MustByName(name)
		coldTiers()
		one, err := ProfileCombined(context.Background(), b, 1998, sizes, p, PaperMaxBoundary, points, intervals, n, -1, tech.Micron018)
		if err != nil {
			t.Fatalf("%s onepass: %v", name, err)
		}
		orc := oracleCombined(t, b, 1998, sizes, p, PaperMaxBoundary, points, intervals, n, tech.Micron018)
		for j, cc := range points {
			if one[j] != orc[j] {
				t.Errorf("%s IQ=%d/L1=%d: TPI onepass %v != oracle %v", name, cc.QueueEntries, cc.Boundary, one[j], orc[j])
			}
		}
	}
}

// TestProfileCombinedOnepassErrors locks validation parity on the joint path.
func TestProfileCombinedOnepassErrors(t *testing.T) {
	trace.Reset()
	defer trace.Reset()
	ctx := context.Background()
	p := cache.PaperParams()
	b := workload.MustByName("gcc")
	noMem := workload.Benchmark{Name: "synthetic", ILP: b.ILP}
	pts := []CombinedConfig{{QueueEntries: 16, Boundary: 1}}
	if _, err := ProfileCombined(ctx, noMem, 1, []int{16}, p, PaperMaxBoundary, pts, 1, 100, -1, tech.Micron018); err == nil {
		t.Error("missing memory profile accepted")
	}
	if _, err := ProfileCombined(ctx, b, 1, []int{16}, p, PaperMaxBoundary, nil, 1, 100, -1, tech.Micron018); err == nil {
		t.Error("empty point list accepted")
	}
	bad := []CombinedConfig{{QueueEntries: 32, Boundary: 1}}
	if _, err := ProfileCombined(ctx, b, 1, []int{16}, p, PaperMaxBoundary, bad, 1, 100, -1, tech.Micron018); err == nil {
		t.Error("queue size outside table accepted")
	}
	bad = []CombinedConfig{{QueueEntries: 16, Boundary: PaperMaxBoundary + 1}}
	if _, err := ProfileCombined(ctx, b, 1, []int{16}, p, PaperMaxBoundary, bad, 1, 100, -1, tech.Micron018); err == nil {
		t.Error("out-of-range boundary accepted")
	}
}

// TestProfileQueueTracesOnepass checks the interval-trace sharing: every
// size's per-interval TPI trace from the shared MultiCore rounds must be
// bit-identical to a private fixed-configuration QueueMachine's.
func TestProfileQueueTracesOnepass(t *testing.T) {
	b := workload.MustByName("turb3d")
	sizes := []int{16, 64, 128}
	intervals, n := int64(25), int64(2000)
	coldTiers()
	one, err := ProfileQueueTraces(context.Background(), b, 1998, sizes, intervals, n, tech.Micron018)
	if err != nil {
		t.Fatalf("onepass: %v", err)
	}
	orc := oracleQueueTraces(t, b, 1998, sizes, intervals, n, tech.Micron018)
	for i, w := range sizes {
		for iv := range one[i] {
			if one[i][iv] != orc[i][iv] {
				t.Errorf("size %d interval %d: onepass %v != oracle %v", w, iv, one[i][iv], orc[i][iv])
			}
		}
	}
}

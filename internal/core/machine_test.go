package core

import (
	"testing"

	"capsim/internal/cache"
	"capsim/internal/tech"
	"capsim/internal/workload"
)

func queueMachine(t *testing.T, app string, initial int) *QueueMachine {
	t.Helper()
	b, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewQueueMachine(b, 42, PaperQueueSizes(), initial, -1, tech.Micron018)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestQueueMachineConfigs(t *testing.T) {
	m := queueMachine(t, "gcc", 0)
	cfgs := m.Configs()
	if len(cfgs) != 8 {
		t.Fatalf("%d configs, want 8", len(cfgs))
	}
	for i := 1; i < len(cfgs); i++ {
		if cfgs[i].CycleNS <= cfgs[i-1].CycleNS {
			t.Errorf("config %d cycle %v not greater than %v", i, cfgs[i].CycleNS, cfgs[i-1].CycleNS)
		}
	}
	if m.Current().ID != 0 {
		t.Errorf("current %d, want 0", m.Current().ID)
	}
	if m.Name() != "int-queue" {
		t.Errorf("name %q", m.Name())
	}
}

func TestQueueMachineValidation(t *testing.T) {
	b := workload.MustByName("gcc")
	if _, err := NewQueueMachine(b, 1, nil, 0, -1, tech.Micron018); err == nil {
		t.Error("empty sizes accepted")
	}
	if _, err := NewQueueMachine(b, 1, []int{16}, 1, -1, tech.Micron018); err == nil {
		t.Error("out-of-range initial accepted")
	}
	if _, err := NewQueueMachine(b, 1, []int{0}, 0, -1, tech.Micron018); err == nil {
		t.Error("zero queue size accepted")
	}
}

func TestQueueMachineRunAccumulatesTPI(t *testing.T) {
	m := queueMachine(t, "gcc", 3)
	s := m.RunInterval(20000)
	if s.TPI <= 0 {
		t.Fatalf("bad sample %+v", s)
	}
	if m.Instrs() < 20000 {
		t.Errorf("instrs %d", m.Instrs())
	}
	if m.TotalTPI() <= 0 || m.TimeNS() <= 0 {
		t.Error("no time accumulated")
	}
	// TPI = time/instrs consistency.
	if got := m.TimeNS() / float64(m.Instrs()); got != m.TotalTPI() {
		t.Errorf("TPI inconsistency: %v vs %v", got, m.TotalTPI())
	}
}

func TestQueueMachineReconfigure(t *testing.T) {
	m := queueMachine(t, "gcc", 7) // 128 entries
	m.RunInterval(5000)
	stall, err := m.SetConfig(0) // shrink to 16: drain + clock switch
	if err != nil {
		t.Fatal(err)
	}
	if stall <= 0 {
		t.Error("shrink reconfiguration reported no stall")
	}
	if m.Current().ID != 0 {
		t.Errorf("current %d", m.Current().ID)
	}
	if m.Clock().Switches() != 1 {
		t.Errorf("clock switches %d", m.Clock().Switches())
	}
	// No-op reconfiguration is free.
	stall, err = m.SetConfig(0)
	if err != nil || stall != 0 {
		t.Errorf("no-op reconfig: stall=%d err=%v", stall, err)
	}
	if _, err := m.SetConfig(99); err == nil {
		t.Error("unknown config accepted")
	}
}

func TestRunQueueWithPolicies(t *testing.T) {
	m := queueMachine(t, "gcc", 0)
	res, samples := RunQueue(m, FixedPolicy{Config: 3}, 20, 1000)
	if len(samples) != 20 {
		t.Fatalf("%d samples", len(samples))
	}
	if res.Switches != 1 { // initial move 0 -> 3
		t.Errorf("switches %d, want 1", res.Switches)
	}
	for i, s := range samples {
		if s.Config != 3 {
			t.Fatalf("interval %d ran on config %d", i, s.Config)
		}
	}
	if res.TPI <= 0 || res.Instrs < 20000 {
		t.Errorf("aggregate %+v", res)
	}
}

func TestRunQueueIntervalPolicy(t *testing.T) {
	b := workload.MustByName("vortex")
	m, err := NewQueueMachine(b, 42, []int{16, 64}, 0, -1, tech.Micron018)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := RunQueue(m, &IntervalPolicy{Configs: []int{0, 1}}, 200, 2000)
	if res.TPI <= 0 {
		t.Error("no TPI")
	}
	if res.Switches == 0 {
		t.Error("interval policy never explored the alternative configuration")
	}
}

func TestProfileQueueTPI(t *testing.T) {
	b := workload.MustByName("appcg")
	tpi, err := ProfileQueueTPI(b, 42, []int{16, 64}, 30000, tech.Micron018)
	if err != nil {
		t.Fatal(err)
	}
	if len(tpi) != 2 {
		t.Fatalf("profile table %v", tpi)
	}
	// appcg is dependence-bound: the fast 16-entry clock must win.
	if SelectBestIndex(tpi) != 0 {
		t.Errorf("appcg best config %d (table %v), want 16 entries", SelectBestIndex(tpi), tpi)
	}
}

func cacheMachine(t *testing.T, app string, initial int) *CacheMachine {
	t.Helper()
	b := workload.MustByName(app)
	m, err := NewCacheMachine(b, 42, cache.PaperParams(), PaperMaxBoundary, initial, -1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCacheMachineConfigs(t *testing.T) {
	m := cacheMachine(t, "gcc", 2)
	cfgs := m.Configs()
	if len(cfgs) != PaperMaxBoundary {
		t.Fatalf("%d configs", len(cfgs))
	}
	if m.Current().ID != 2 {
		t.Errorf("current %d", m.Current().ID)
	}
	if m.Name() != "dcache-hierarchy" {
		t.Errorf("name %q", m.Name())
	}
	if m.Timing(2).CycleNS <= 0 {
		t.Error("no timing")
	}
}

func TestCacheMachineRejectsGo(t *testing.T) {
	b := workload.MustByName("go")
	if _, err := NewCacheMachine(b, 1, cache.PaperParams(), PaperMaxBoundary, 2, -1); err == nil {
		t.Error("go (no memory profile) accepted")
	}
}

func TestCacheMachineRunAndMetrics(t *testing.T) {
	m := cacheMachine(t, "stereo", 2)
	s := m.RunInterval(50000)
	if s.TPI <= 0 {
		t.Fatalf("bad sample %+v", s)
	}
	if m.TotalTPIMiss() <= 0 {
		t.Error("stereo at 16KB must have miss stalls")
	}
	if m.TotalTPI() <= m.TotalTPIMiss() {
		t.Error("TPI must exceed TPImiss (base pipeline)")
	}
	if m.Stats().Refs != 50000 {
		t.Errorf("refs %d", m.Stats().Refs)
	}
}

func TestCacheMachineReconfigureKeepsContents(t *testing.T) {
	m := cacheMachine(t, "gcc", 2)
	m.RunInterval(20000)
	blocks := m.Hierarchy().BlockCount()
	if _, err := m.SetConfig(6); err != nil {
		t.Fatal(err)
	}
	if got := m.Hierarchy().BlockCount(); got != blocks {
		t.Errorf("reconfiguration changed contents: %d -> %d", blocks, got)
	}
	if err := m.Hierarchy().CheckExclusive(); err != nil {
		t.Error(err)
	}
	if m.Clock().Switches() != 1 {
		t.Errorf("switches %d", m.Clock().Switches())
	}
	if _, err := m.SetConfig(0); err == nil {
		t.Error("boundary 0 accepted")
	}
}

func TestRunCacheProcessLevel(t *testing.T) {
	m := cacheMachine(t, "swim", 2)
	res, samples := RunCache(m, ProcessLevelPolicy{Best: 6}, 10, 5000)
	if res.Refs != 50000 {
		t.Errorf("refs %d", res.Refs)
	}
	for _, s := range samples {
		if s.Config != 6 {
			t.Fatalf("interval ran on %d", s.Config)
		}
	}
}

func TestProfileCacheTPIShape(t *testing.T) {
	// stereo's loop working set fits only in large L1s: its best boundary
	// must be past the 16KB conventional point, and its TPI at k=2 must
	// exceed its TPI at the best.
	b := workload.MustByName("stereo")
	tpi, miss, err := ProfileCacheTPI(b, 42, cache.PaperParams(), PaperMaxBoundary, 30000, 120000)
	if err != nil {
		t.Fatal(err)
	}
	best := SelectBestIndex(tpi)
	if best < 5 {
		t.Errorf("stereo best boundary k=%d, want >= 5 (48KB+)", best)
	}
	if tpi[2] <= tpi[best] {
		t.Error("stereo should improve over the 16KB conventional configuration")
	}
	if miss[2] <= miss[best] {
		t.Error("stereo TPImiss should fall at its best boundary")
	}
}

func TestQueueFigureShapeAnchors(t *testing.T) {
	// Spot-check the headline per-application shapes of Figure 10/11.
	sizes := PaperQueueSizes()
	check := func(app string, wantBest func(int) bool, desc string) {
		b := workload.MustByName(app)
		tpi, err := ProfileQueueTPI(b, 1998, sizes, 60000, tech.Micron018)
		if err != nil {
			t.Fatal(err)
		}
		best := sizes[SelectBestIndex(tpi)]
		if !wantBest(best) {
			t.Errorf("%s best queue %d entries, want %s (table %v)", app, best, desc, tpi)
		}
	}
	check("appcg", func(b int) bool { return b == 16 }, "16")
	check("fpppp", func(b int) bool { return b == 16 }, "16")
	check("radar", func(b int) bool { return b == 16 }, "16")
	check("m88ksim", func(b int) bool { return b >= 48 && b <= 80 }, "~64")
	check("compress", func(b int) bool { return b >= 96 }, ">=96")
}

func TestValidateConfigs(t *testing.T) {
	if err := validateConfigs(nil); err == nil {
		t.Error("empty table accepted")
	}
	if err := validateConfigs([]Config{{ID: 0, CycleNS: 0}}); err == nil {
		t.Error("zero cycle accepted")
	}
	if err := validateConfigs([]Config{{ID: 0, CycleNS: 1}, {ID: 0, CycleNS: 2}}); err == nil {
		t.Error("duplicate id accepted")
	}
	if err := validateConfigs([]Config{{ID: 0, CycleNS: 1}, {ID: 1, CycleNS: 2}}); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
}

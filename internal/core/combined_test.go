package core

import (
	"testing"

	"capsim/internal/cache"
	"capsim/internal/tech"
	"capsim/internal/workload"
)

func combined(t *testing.T, app string, cc CombinedConfig) *CombinedMachine {
	t.Helper()
	b := workload.MustByName(app)
	m, err := NewCombinedMachine(b, 42, []int{16, 64, 128}, cache.PaperParams(),
		PaperMaxBoundary, cc, -1, tech.Micron018)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCombinedConfigSpace(t *testing.T) {
	m := combined(t, "gcc", CombinedConfig{QueueEntries: 64, Boundary: 2})
	cfgs := m.Configs()
	if len(cfgs) != 3*PaperMaxBoundary {
		t.Fatalf("%d configs, want %d", len(cfgs), 3*PaperMaxBoundary)
	}
	if m.Name() != "cap-processor" {
		t.Errorf("name %q", m.Name())
	}
	cc, err := m.Decode(m.Current().ID)
	if err != nil {
		t.Fatal(err)
	}
	if cc.QueueEntries != 64 || cc.Boundary != 2 {
		t.Errorf("decoded %+v", cc)
	}
	if _, err := m.Decode(-1); err == nil {
		t.Error("negative id accepted")
	}
}

func TestCombinedClockIsWorstCase(t *testing.T) {
	// With a large L1 and a small queue, the cache sets the cycle; with a
	// huge queue and a small L1, the queue does. Either way the joint
	// cycle is >= each structure's own requirement.
	m := combined(t, "gcc", CombinedConfig{QueueEntries: 16, Boundary: 8})
	cacheCyc := cache.TimingFor(cache.PaperParams(), 8).CycleNS
	if m.Current().CycleNS < cacheCyc {
		t.Errorf("joint cycle %v below cache requirement %v", m.Current().CycleNS, cacheCyc)
	}
	m2 := combined(t, "gcc", CombinedConfig{QueueEntries: 128, Boundary: 1})
	if m2.Current().CycleNS <= cache.TimingFor(cache.PaperParams(), 1).CycleNS {
		t.Errorf("128-entry queue should dominate the small-L1 cycle")
	}
}

func TestCombinedRunCouplesCache(t *testing.T) {
	// The same application must run slower (lower IPC) with a tiny L1
	// than with one that fits its working set, at the SAME queue size —
	// proof that loads actually traverse the hierarchy.
	small := combined(t, "stereo", CombinedConfig{QueueEntries: 64, Boundary: 1})
	large := combined(t, "stereo", CombinedConfig{QueueEntries: 64, Boundary: 6})
	small.RunInterval(40000)
	large.RunInterval(40000)
	ipc := func(m *CombinedMachine) float64 {
		st := m.core.Stats()
		return float64(st.Issued) / float64(st.Cycles)
	}
	if ipcSmall, ipcLarge := ipc(small), ipc(large); ipcSmall >= ipcLarge {
		t.Errorf("stereo IPC with 8KB L1 (%v) not below 48KB L1 (%v)", ipcSmall, ipcLarge)
	}
	if small.Hierarchy().Stats().Refs == 0 {
		t.Error("no cache references recorded")
	}
	if err := small.Hierarchy().CheckExclusive(); err != nil {
		t.Error(err)
	}
}

func TestCombinedSetConfig(t *testing.T) {
	m := combined(t, "gcc", CombinedConfig{QueueEntries: 128, Boundary: 2})
	m.RunInterval(5000)
	id, err := m.configID(CombinedConfig{QueueEntries: 16, Boundary: 6})
	if err != nil {
		t.Fatal(err)
	}
	stall, err := m.SetConfig(id)
	if err != nil {
		t.Fatal(err)
	}
	if stall <= 0 {
		t.Error("queue shrink + clock switch reported no stall")
	}
	cc, _ := m.Decode(m.Current().ID)
	if cc.QueueEntries != 16 || cc.Boundary != 6 {
		t.Errorf("post-reconfig %+v", cc)
	}
	if m.Hierarchy().Boundary() != 6 {
		t.Errorf("hierarchy boundary %d", m.Hierarchy().Boundary())
	}
	if _, err := m.SetConfig(999); err == nil {
		t.Error("unknown config accepted")
	}
}

func TestCombinedRejectsGo(t *testing.T) {
	b := workload.MustByName("go")
	_, err := NewCombinedMachine(b, 1, []int{16}, cache.PaperParams(), PaperMaxBoundary,
		CombinedConfig{QueueEntries: 16, Boundary: 1}, -1, tech.Micron018)
	if err == nil {
		t.Error("go (no memory profile) accepted")
	}
}

func TestCombinedLoadCarryOver(t *testing.T) {
	// The core's fractional-load accumulator must carry across interval
	// boundaries: a two-interval run consumes exactly the same reference
	// sequence — same hierarchy touch count, same cycle count — as one
	// unbroken run of the same total length. If RunWithLoads reset the
	// accumulator per call, the split run's second interval would restart
	// the rpi spacing and diverge on both counts.
	whole := combined(t, "gcc", CombinedConfig{QueueEntries: 64, Boundary: 2})
	split := combined(t, "gcc", CombinedConfig{QueueEntries: 64, Boundary: 2})
	whole.RunInterval(40000)
	split.RunInterval(20000)
	split.RunInterval(20000)
	// Interval overshoot telescopes the split run's final issue target past
	// the unbroken run's; top the shorter machine up to the longer one's
	// issued count so both stop on the same cycle, then demand exact
	// equality of every externally visible total.
	if d := split.Instrs() - whole.Instrs(); d > 0 {
		whole.RunInterval(d)
	} else if d < 0 {
		split.RunInterval(-d)
	}
	if whole.Instrs() != split.Instrs() {
		t.Fatalf("instruction counts differ: %d vs %d", whole.Instrs(), split.Instrs())
	}
	wr, sr := whole.Hierarchy().Stats().Refs, split.Hierarchy().Stats().Refs
	if wr != sr {
		t.Errorf("load counts differ across interval split: unbroken %d, split %d", wr, sr)
	}
	if a, b := whole.TotalTPI(), split.TotalTPI(); a != b {
		t.Errorf("TPI differs across interval split: %v vs %v", a, b)
	}
	if wr == 0 {
		t.Fatal("no loads recorded")
	}
}

func TestRunWithLoadsRate(t *testing.T) {
	// The deterministic thinning must call memLat at the profile rate.
	b := workload.MustByName("gcc")
	m, err := NewCombinedMachine(b, 42, []int{64}, cache.PaperParams(), PaperMaxBoundary,
		CombinedConfig{QueueEntries: 64, Boundary: 2}, -1, tech.Micron018)
	if err != nil {
		t.Fatal(err)
	}
	m.RunInterval(50000)
	refs := float64(m.Hierarchy().Stats().Refs)
	instrs := float64(m.Instrs())
	got := refs / instrs
	if got < b.Mem.RefsPerInstr*0.95 || got > b.Mem.RefsPerInstr*1.05 {
		t.Errorf("refs/instr %v, want ~%v", got, b.Mem.RefsPerInstr)
	}
}

// TestCombinedSetConfigTransitions is the table-driven transition-cost
// contract for the joint machine: a switch's reported cost is the queue
// drain (only when shrinking below occupancy) plus the clock-switch penalty,
// and a combined queue-resize + boundary-move pays both in ONE switch — not
// two clock penalties.
func TestCombinedSetConfigTransitions(t *testing.T) {
	cases := []struct {
		name      string
		from, to  CombinedConfig
		wantDrain bool // expect drain stalls on top of the clock penalty
	}{
		{"same-config no-op", CombinedConfig{64, 2}, CombinedConfig{64, 2}, false},
		{"queue grow only", CombinedConfig{16, 2}, CombinedConfig{64, 2}, false},
		{"queue shrink only", CombinedConfig{128, 2}, CombinedConfig{16, 2}, true},
		{"boundary move only", CombinedConfig{64, 1}, CombinedConfig{64, 8}, false},
		{"shrink + boundary move", CombinedConfig{128, 1}, CombinedConfig{16, 8}, true},
		{"grow + boundary move", CombinedConfig{16, 8}, CombinedConfig{128, 1}, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := combined(t, "gcc", tc.from)
			m.RunInterval(5000) // fill the window so shrinks have entries to drain
			id, err := m.configID(tc.to)
			if err != nil {
				t.Fatal(err)
			}
			switchesBefore := m.Clock().Switches()
			cost, err := m.SetConfig(id)
			if err != nil {
				t.Fatal(err)
			}
			if tc.from == tc.to {
				if cost != 0 {
					t.Fatalf("no-op switch cost %d", cost)
				}
				if m.Clock().Switches() != switchesBefore {
					t.Fatal("no-op switch touched the clock")
				}
				return
			}
			pen := m.penalty
			if tc.wantDrain {
				if cost <= pen {
					t.Errorf("cost %d, want drain stalls beyond the %d-cycle penalty", cost, pen)
				}
			} else if cost != pen {
				t.Errorf("cost %d, want exactly the %d-cycle clock penalty", cost, pen)
			}
			if got := m.Clock().Switches() - switchesBefore; got != 1 {
				t.Errorf("%d clock switches, want 1", got)
			}
			cc, err := m.Decode(m.Current().ID)
			if err != nil {
				t.Fatal(err)
			}
			if cc != tc.to {
				t.Errorf("landed on %+v, want %+v", cc, tc.to)
			}
			if m.Hierarchy().Boundary() != tc.to.Boundary {
				t.Errorf("hierarchy boundary %d, want %d", m.Hierarchy().Boundary(), tc.to.Boundary)
			}
			if m.core.Config().WindowSize != tc.to.QueueEntries {
				t.Errorf("window %d, want %d", m.core.Config().WindowSize, tc.to.QueueEntries)
			}
			// The machine must still run correctly after the transition.
			if s := m.RunInterval(2000); s.TPI <= 0 {
				t.Errorf("post-switch interval TPI %v", s.TPI)
			}
		})
	}
}

package cache

import (
	"testing"
)

func TestTimingCycleGrowsWithBoundary(t *testing.T) {
	p := PaperParams()
	prev := 0.0
	for k := 1; k <= 8; k++ {
		tm := TimingFor(p, k)
		if tm.CycleNS <= prev {
			t.Errorf("k=%d: cycle %v not greater than k=%d's %v", k, tm.CycleNS, k-1, prev)
		}
		if tm.Boundary != k {
			t.Errorf("k=%d: timing boundary %d", k, tm.Boundary)
		}
		prev = tm.CycleNS
	}
}

func TestTimingAnchors(t *testing.T) {
	// Calibration anchors at 0.18 micron: the 16KB 4-way configuration
	// (the paper's best conventional) cycles near 0.48 ns, and the
	// memory latency is the paper's 30 ns converted at that clock.
	p := PaperParams()
	tm := TimingFor(p, 2)
	if tm.CycleNS < 0.40 || tm.CycleNS > 0.60 {
		t.Errorf("k=2 cycle %v ns outside anchor band", tm.CycleNS)
	}
	if tm.L1AccessNS <= tm.CycleNS*2.9 || tm.L1AccessNS >= tm.CycleNS*3.1 {
		t.Errorf("L1 access %v not ~3 cycles of %v", tm.L1AccessNS, tm.CycleNS)
	}
	wantMem := int(30.0 / tm.CycleNS)
	if tm.MemCycles < wantMem || tm.MemCycles > wantMem+1 {
		t.Errorf("mem cycles %d, want ~%d", tm.MemCycles, wantMem)
	}
	// The paper: 30 ns is 2-3x the L2 hit latency.
	l2ns := float64(tm.L2HitCycles) * tm.CycleNS
	if ratio := 30.0 / l2ns; ratio < 2 || ratio > 6 {
		t.Errorf("30ns / L2 hit = %v, want roughly 2-5", ratio)
	}
}

func TestL2HitCyclesDecreaseWithSlowerClock(t *testing.T) {
	// The L2 access time in ns is boundary-independent (full structure),
	// so a slower clock means fewer cycles.
	p := PaperParams()
	if TimingFor(p, 8).L2HitCycles > TimingFor(p, 1).L2HitCycles {
		t.Error("L2 hit cycles should not grow with a slower clock")
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct {
		x, y float64
		want int
	}{{30, 0.5, 60}, {30.1, 0.5, 61}, {0.9, 1, 1}, {2.0, 1.0, 2}}
	for _, c := range cases {
		if got := ceilDiv(c.x, c.y); got != c.want {
			t.Errorf("ceilDiv(%v,%v) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

func TestTimingForPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TimingFor(Params{}, 1)
}

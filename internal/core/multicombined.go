package core

import (
	"context"
	"fmt"

	"capsim/internal/cache"
	"capsim/internal/classify"
	"capsim/internal/ooo"
	"capsim/internal/tech"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// CombinedConfig identifies one point in the joint configuration space.
type CombinedConfig struct {
	QueueEntries int
	Boundary     int // L1 increments
}

// MultiCombined is the joint one-pass engine for the Figure 5 processor: it
// evaluates EVERY requested (cache boundary × queue size) configuration of
// the joint machine in a single lockstep pass over one shared trace stream,
// composing the two existing one-pass kernels.
//
// The decomposition rests on two facts about the per-configuration machine
// (CombinedMachine, the test oracle in combinedmachine_test.go):
//
//   - Load PLACEMENT is configuration-independent. Loads are attached to
//     dispatched instructions by a deterministic fractional accumulator at
//     the profile's refs-per-instruction rate, so the i-th load of every
//     configuration sits at the same stream position and consumes the same
//     reference r_i — whatever the queue size or boundary.
//
//   - Cache state is BOUNDARY-shared. A cell's hierarchy sees exactly the
//     load reference sequence r_0, r_1, ... in order, so two cells with the
//     same boundary have bit-identical hierarchy states at every load index;
//     the hierarchy column of the cross product collapses to one row per
//     boundary.
//
// The kernel therefore replays the classification-stream tier
// (internal/classify): the per-reference outcome of every boundary is
// materialized once per kernel, by one MultiHierarchy pass, and each cell
// serves its load latencies from its own replay cursor over its boundary's
// compressed row. Queue columns still advance over one shared instruction
// buffer (ooo.MultiCore), and the cell's clock remains the joint worst case
// of its queue and cache timings. Per-cell results are bit-identical to
// independent CombinedMachines (TestProfileCombinedOnepass): same Stats, same
// memLat sequence, same float operation order in the TPI arithmetic.
type MultiCombined struct {
	points  []CombinedConfig
	periods []float64 // per cell: worst case of queue and cache cycle times
	rpi     float64

	mc      *ooo.MultiCore
	istream workload.InstrSource

	memLat []func(write bool) int64

	instrs []int64
	timeNS []float64
}

// classifyBudget bounds the loads any cell can consume in `intervals`
// intervals of n instructions: per interval the issue target can overshoot
// by less than the issue width, dispatch leads issue by at most the window
// occupancy, and the fractional accumulator attaches at most rpi loads per
// dispatched instruction. The classification stream is materialized to this
// length; a cursor read past it panics (classify.Cursor), so an
// under-estimate is loud, never silently wrong.
func classifyBudget(intervals, n int64, maxWindow, issueWidth int, rpi float64) int64 {
	instrs := intervals*(n+int64(issueWidth)) + int64(maxWindow)
	return int64(float64(instrs)*rpi) + 2
}

// NewMultiCombined builds the joint kernel for one application over the
// given configuration points. sizes is the machine's queue-size table (the
// legal values for points' QueueEntries), exactly as passed to
// NewCombinedMachine; maxBoundary bounds the boundary rows. intervals and n
// size the classification stream: the kernel materializes the class
// outcomes for the whole planned run up front, so RunInterval may be
// called at most `intervals` times.
func NewMultiCombined(b workload.Benchmark, seed uint64, sizes []int, p cache.Params, maxBoundary int, points []CombinedConfig, intervals, n int64, f tech.FeatureSize) (*MultiCombined, error) {
	if b.Mem == nil {
		return nil, fmt.Errorf("core: %s has no memory profile", b.Name)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("core: no configuration points")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lo, hi := p.Boundaries()
	if maxBoundary < lo || maxBoundary > hi {
		return nil, fmt.Errorf("core: max boundary %d outside [%d,%d]", maxBoundary, lo, hi)
	}
	m := &MultiCombined{
		points:  points,
		periods: make([]float64, len(points)),
		rpi:     b.Mem.RefsPerInstr,
		memLat:  make([]func(write bool) int64, len(points)),
		instrs:  make([]int64, len(points)),
		timeNS:  make([]float64, len(points)),
	}
	m.istream = trace.OpsFor(b, seed).Cursor()

	maxWindow := 0
	cfgs := make([]ooo.Config, len(points))
	for i, cc := range points {
		if cc.Boundary < 1 || cc.Boundary > maxBoundary {
			return nil, fmt.Errorf("core: boundary %d outside [1,%d]", cc.Boundary, maxBoundary)
		}
		ok := false
		for _, w := range sizes {
			if w == cc.QueueEntries {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("core: queue size %d not in table %v", cc.QueueEntries, sizes)
		}
		cfgs[i] = ooo.PaperConfig(cc.QueueEntries)
		if cfgs[i].WindowSize > maxWindow {
			maxWindow = cfgs[i].WindowSize
		}
	}
	var err error
	if m.mc, err = ooo.NewMultiCore(cfgs); err != nil {
		return nil, err
	}

	// One classification stream serves every cell: materialized once and
	// replayed through independent per-cell cursors, so cells sharing a
	// boundary share the row bytes without any cross-cell extend/trim
	// coordination.
	nrefs := classifyBudget(intervals, n, maxWindow, cfgs[0].IssueWidth, m.rpi)
	cs, err := classify.StreamFor(b, seed, p, maxBoundary, nrefs)
	if err != nil {
		return nil, err
	}

	// Per-cell clocks and load-latency closures. The period is the worst
	// case of the queue's wakeup+select time and the cache timing, exactly
	// as NewCombinedMachine computes it; the latency switch mirrors
	// CombinedMachine.RunInterval's memLat term for term, reading this
	// cell's boundary row through this cell's own replay cursor.
	tp := tech.ForFeature(f)
	for i, cc := range points {
		t := cache.TimingFor(p, cc.Boundary)
		cyc := QueueCycleNS(cc.QueueEntries, tp)
		if t.CycleNS > cyc {
			cyc = t.CycleNS
		}
		m.periods[i] = cyc
		cur := cs.Cursor(cc.Boundary)
		l2 := int64(t.L2HitCycles)
		mem := int64(t.L2HitCycles + t.MemCycles)
		m.memLat[i] = func(write bool) int64 {
			switch cache.ClassLevel(cur.Next()) {
			case cache.L1Hit:
				return 0
			case cache.L2Hit:
				return l2
			default:
				return mem
			}
		}
	}
	return m, nil
}

// RunInterval advances every cell by n issued instructions and accumulates
// each cell's time at its own coupled clock — float64(cycles) × period, the
// identical float expression clock.System.Advance applies in the per-cell
// oracle. Per-cell fractional-load accumulators carry across intervals
// exactly as CombinedMachine's do.
func (m *MultiCombined) RunInterval(n int64) {
	sts := m.mc.RunEachWithLoads(m.istream, n, m.rpi, m.memLat)
	for i, st := range sts {
		m.instrs[i] += st.Issued
		m.timeNS[i] += float64(st.Cycles) * m.periods[i]
	}
}

// TPIs returns each cell's cumulative ns per instruction, index-parallel to
// the construction points.
func (m *MultiCombined) TPIs() []float64 {
	out := make([]float64, len(m.points))
	for i := range m.points {
		if m.instrs[i] != 0 {
			out[i] = m.timeNS[i] / float64(m.instrs[i])
		}
	}
	return out
}

// PublishObs ships the member engines' telemetry deltas. (The hierarchy
// pass behind the classification stream publishes its own at generation.)
func (m *MultiCombined) PublishObs() {
	m.mc.PublishObs()
}

// ProfileCombined profiles every joint configuration point for one
// application: each point runs `intervals` intervals of n instructions from
// a fresh machine state and the result is its TotalTPI, index-parallel to
// points — the profiling grid behind the Figure 5 experiment.
//
// The whole grid is evaluated by ONE MultiCombined pass: the instruction
// stream is decoded once for all queue columns, each reference is decoded
// and classified once for all cache rows, and cells with the same boundary
// share hierarchy state. Per-point results are bit-identical to independent
// CombinedMachines (TestProfileCombinedOnepass). Each point holds one
// configuration for the whole run, so no clock switch happens and
// penaltyCycles never enters the result; it is kept for signature
// compatibility with existing callers.
func ProfileCombined(ctx context.Context, b workload.Benchmark, seed uint64, sizes []int, p cache.Params, maxBoundary int, points []CombinedConfig, intervals, n int64, penaltyCycles int, f tech.FeatureSize) ([]float64, error) {
	m, err := NewMultiCombined(b, seed, sizes, p, maxBoundary, points, intervals, n, f)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < intervals; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.RunInterval(n)
	}
	m.PublishObs()
	return m.TPIs(), nil
}

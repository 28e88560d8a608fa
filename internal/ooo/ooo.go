// Package ooo implements the out-of-order issue-queue simulator used for the
// paper's complexity-adaptive instruction queue experiment (Section 5.3).
//
// Following the paper's methodology, the machine model is deliberately
// idealized everywhere except the queue itself: an 8-way fetch/dispatch
// front end with perfect branch prediction, perfect caches, and plentiful
// functional units. IPC is then determined solely by how much of the
// instruction stream's dependence structure the window can expose — which is
// exactly the quantity that trades against the queue's wakeup+select cycle
// time.
//
// The queue is a RAM/CAM structure: dispatched instructions wait in the
// window until their source operands complete (wakeup), ready instructions
// issue oldest-first up to the issue width (select, a tree of priority
// encoders), and entries are freed at issue. Shrinking the queue requires
// draining the entries being disabled (paper Section 5.1); Drain models
// that.
//
// The issue engine computes each instruction's issue cycle once, at
// dispatch, in program order. Select is strictly oldest-first and an issued
// entry leaves the window, so an instruction's issue cycle depends only on
// older instructions: it is the first cycle t >= max(dispatch, ready) in
// which fewer than IssueWidth older instructions issue, where ready is the
// latest completion cycle among its producers. Every older instruction's
// issue cycle is already known when an instruction dispatches, so select
// needs nothing but a ring of per-cycle issue counts — no wakeup lists, no
// ready queue, no per-cycle walk of the window. See dispatch for the
// exactness argument. The direct model — every cycle re-scans the window
// oldest-first, waking and selecting in one pass — is the executable
// specification the engine is verified against; it lives in scan_test.go.
package ooo

import (
	"fmt"

	"capsim/internal/workload"
)

// Config describes the simulated machine.
type Config struct {
	// WindowSize is the number of instruction-queue entries.
	WindowSize int
	// IssueWidth is the maximum instructions issued per cycle (and the
	// dispatch width; the paper models an 8-way machine).
	IssueWidth int
}

// PaperConfig returns the paper's 8-way machine with the given window.
func PaperConfig(window int) Config { return Config{WindowSize: window, IssueWidth: 8} }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.WindowSize < 1 {
		return fmt.Errorf("ooo: window size %d must be >= 1", c.WindowSize)
	}
	if c.IssueWidth < 1 {
		return fmt.Errorf("ooo: issue width %d must be >= 1", c.IssueWidth)
	}
	return nil
}

// maxDist caps usable dependence distances; producers further away are
// treated as retired (their results are trivially available). The paper's
// window sizes top out at 128 entries and every workload profile draws
// dependence distances from geometric mixtures with means below ~30, so a
// 2048-instruction horizon is unreachable in practice (P ≈ e^-68 per
// instruction for the largest mean); and any producer ≥ maxDist dispatches
// old has long completed (in-flight age is bounded by the window plus
// IssueWidth × the maximum completion latency, far below maxDist), so its
// contribution to a consumer's readiness is already in the past and
// classification as "retired" cannot change issue timing.
const maxDist = 1 << 11

// ringSlack is the extra completion-ring headroom beyond WindowSize+maxDist.
// Producers are read at dispatch, fewer than maxDist instructions back, so
// the ring always covers them; the slack also keeps every in-flight
// instruction's slot live. Pathological schedules (enormous RunWithLoads
// latencies) are caught by the recycle guard in dispatch, which grows the
// ring rather than overwrite a completion cycle still in the future.
const ringSlack = 1 << 11

// ringSize returns the completion-ring capacity for a window: the smallest
// power of two covering the window, the tracked dependence horizon and the
// in-flight slack. For the paper's 16–128-entry windows this is 8192 slots
// (64 KB) — 8× smaller than the fixed 512 KB ring it replaces, which matters
// when profiling fans dozens of cores out across sweep workers.
func ringSize(window int) int {
	need := window + maxDist + ringSlack
	r := 1
	for r < need {
		r <<= 1
	}
	return r
}

// initSlots is the issue-count ring's starting length. It grows (see
// growSlots) when an issue cycle lands a ring length past the current cycle,
// which a full window of long-latency dependence chains can reach.
const initSlots = 1 << 8

// Core is the simulator state.
type Core struct {
	cfg   Config
	cycle int64
	seq   int64 // next dynamic instruction number to dispatch
	occ   int   // dispatched instructions not yet issued

	// done[seq & mask] is the cycle the instruction's result is available:
	// its issue cycle plus its latency, known from dispatch on. The ring is
	// a power of two sized by ringSize for the configured window (it grows,
	// never shrinks, across Resize).
	done []int64
	mask int64

	// slots[t & slotMask] counts the dispatched instructions whose issue
	// cycle is t, for t in [cycle, cycle+len(slots)); the count for cycle t
	// is consumed (zeroed) when t's issue phase runs. A power of two.
	slots    []int32
	slotMask int64

	// group is Step's dispatch-group buffer (IssueWidth instructions).
	group []workload.Instr

	// Load attachment (RunWithLoads): every 1/loadRPI-th dispatched
	// instruction becomes a memory operation whose extra latency is
	// drawn from memLat. Zero-valued = disabled (perfect caches).
	//
	// loadAcc is the fractional-load accumulator. It deliberately
	// persists across RunWithLoads calls: the CombinedMachine runs in
	// intervals, and the deterministic refs-per-instruction spacing must
	// continue across interval boundaries rather than restart (the
	// accumulator carrying, say, 0.7 into the next interval makes its
	// first load arrive one instruction earlier, exactly as if the run
	// had not been split). TestRunWithLoadsCarryOver pins this.
	loadRPI float64
	loadAcc float64
	memLat  func(write bool) int64

	stats Stats

	// Telemetry tallies and publish baselines (obs.go): plain unconditional
	// increments on already-branchy paths; PublishObs ships the deltas.
	tal      tallies
	pubStats Stats
	pubTal   tallies
}

// Stats accumulates execution statistics.
type Stats struct {
	Cycles       int64
	Instrs       int64 // dispatched
	Issued       int64
	DrainStalls  int64 // cycles spent draining for downsizing
	WindowFullCy int64 // cycles in which dispatch was blocked by a full window
}

// IPC returns issued instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Issued) / float64(s.Cycles)
}

// Sub returns s - o, the statistics delta between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Cycles:       s.Cycles - o.Cycles,
		Instrs:       s.Instrs - o.Instrs,
		Issued:       s.Issued - o.Issued,
		DrainStalls:  s.DrainStalls - o.DrainStalls,
		WindowFullCy: s.WindowFullCy - o.WindowFullCy,
	}
}

// New creates a core.
func New(cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.WindowSize >= maxDist {
		return nil, fmt.Errorf("ooo: window size %d exceeds supported maximum %d", cfg.WindowSize, maxDist-1)
	}
	r := ringSize(cfg.WindowSize)
	return &Core{
		cfg:      cfg,
		done:     make([]int64, r),
		mask:     int64(r - 1),
		slots:    make([]int32, initSlots),
		slotMask: initSlots - 1,
		group:    make([]workload.Instr, cfg.IssueWidth),
	}, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Core {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Stats returns accumulated statistics.
func (c *Core) Stats() Stats { return c.stats }

// ResetStats zeroes counters without touching pipeline state (used to
// discard warm-up and to delimit measurement intervals).
func (c *Core) ResetStats() { c.stats, c.pubStats = Stats{}, Stats{} }

// Occupancy returns the current number of window entries in use.
func (c *Core) Occupancy() int { return c.occ }

// Run simulates until n more instructions have been issued, pulling from the
// stream as needed, and returns the statistics delta for this run. Issued
// instructions are the paper's measurement unit (TPI over a fixed
// instruction count).
func (c *Core) Run(stream workload.InstrSource, n int64) Stats {
	before := c.stats
	target := c.stats.Issued + n
	for c.stats.Issued < target {
		c.Step(stream)
	}
	c.assertCheck()
	return c.stats.Sub(before)
}

// RunWithLoads is Run with the perfect-cache assumption removed: a
// deterministic rpi fraction of dispatched instructions become memory
// operations whose extra completion latency is supplied by memLat (cycles
// beyond a pipelined L1 hit). The CombinedMachine uses this to couple the
// adaptive queue to the live adaptive cache hierarchy.
//
// The fractional-load accumulator carries over between successive calls (see
// the loadAcc field): splitting a run into intervals yields the identical
// load placement — and therefore identical memLat call sequence and
// statistics — as one unbroken run.
func (c *Core) RunWithLoads(stream workload.InstrSource, n int64, rpi float64, memLat func(write bool) int64) Stats {
	c.attachLoads(rpi, memLat)
	defer c.detachLoads()
	return c.Run(stream, n)
}

// attachLoads enables the deterministic load attachment for subsequent Step
// calls: every 1/rpi-th dispatched instruction draws extra latency from
// memLat. The fractional accumulator is deliberately left untouched so
// interval splits preserve load placement (see loadAcc). MultiCore attaches
// per-core closures around its shared-stream rounds.
func (c *Core) attachLoads(rpi float64, memLat func(write bool) int64) {
	if rpi < 0 {
		rpi = 0
	}
	if rpi > 1 {
		rpi = 1
	}
	c.loadRPI, c.memLat = rpi, memLat
}

// detachLoads restores the perfect-cache assumption (accumulator preserved).
func (c *Core) detachLoads() { c.loadRPI, c.memLat = 0, nil }

// Step advances the machine by one cycle: dispatch up to IssueWidth new
// instructions into free window entries, then issue the instructions whose
// issue cycle this is.
func (c *Core) Step(stream workload.InstrSource) {
	g := c.group[:c.beginCycle()]
	for i := range g {
		g[i] = stream.Next()
	}
	c.dispatch(g)
	c.issue()
}

// beginCycle advances the clock one cycle and returns how many instructions
// this cycle dispatches: IssueWidth, capped by the free window entries. The
// front end is perfect, so it always has instructions.
//
// A full window reads nothing from the stream, so when no instruction issues
// this cycle either, the machine is mid-stall: beginCycle fast-forwards to
// the next cycle with a non-zero issue count. Every skipped cycle would have
// been another dispatch-blocked no-op, counted here as one.
func (c *Core) beginCycle() int {
	c.cycle++
	c.stats.Cycles++
	n := c.cfg.IssueWidth
	if free := c.cfg.WindowSize - c.occ; free < n {
		n = free
		if free == 0 {
			d := c.idleSkip()
			c.stats.Cycles += d
			c.stats.WindowFullCy += 1 + d
		}
	}
	return n
}

// idleSkip advances the clock to the next cycle with a non-zero issue count
// and returns how many cycles it skipped (0 when this cycle issues). Callers
// invoke it only on cycles that dispatch nothing (full window, or draining)
// and so with a non-empty window, whose instructions all hold issue counts
// in [cycle, cycle+len(slots)): the search ends inside the ring.
func (c *Core) idleSkip() int64 {
	d := int64(0)
	for c.slots[(c.cycle+d)&c.slotMask] == 0 {
		d++
	}
	c.cycle += d
	c.tal.idleSkipped += d
	return d
}

// issue retires this cycle's issue count from the ring into the statistics.
func (c *Core) issue() {
	s := &c.slots[c.cycle&c.slotMask]
	c.stats.Issued += int64(*s)
	c.occ -= int(*s)
	*s = 0
}

// dispatch enters a group of instructions into the window at the current
// cycle, fixing each one's issue cycle on the spot.
//
// Why a dispatch-time issue cycle is exact. The scan model issues, each
// cycle, the ready window entries oldest-first up to IssueWidth, and an
// issued entry leaves the window. Instruction i therefore issues at the
// first cycle t >= max(dispatch_i, ready_i) in which fewer than IssueWidth
// older instructions issue: only older instructions precede it in select,
// and every older instruction dispatched before it. Its readiness ready_i
// is the latest completion cycle over its producers — all older, so their
// issue cycles (and completion cycles, done) are already fixed. Nothing
// younger, and nothing dispatched later, can change either quantity, so
// issue cycle i is final at dispatch. A zero-latency producer issuing at t
// completes at t; its consumer then competes for a later slot of the same
// cycle t, which reproduces the scan's same-pass wakeup.
//
// The window size enters only through how many instructions dispatch each
// cycle (Step), which is why Drain and Resize need no per-entry work.
func (c *Core) dispatch(g []workload.Instr) {
	width := int32(c.cfg.IssueWidth)
	for _, in := range g {
		c.recycleGuard()
		seq := c.seq
		lat := int64(in.Latency)
		if c.loadRPI > 0 {
			lat += c.loadLat()
		}
		t := c.cycle
		for _, dist := range in.Src {
			// Beyond the tracked horizon (or negative), or before program
			// start: the producer is retired, its result available.
			// Distance 0 (no source) reads this instruction's own slot,
			// which the recycle guard keeps at or before cycle.
			if uint32(dist) < maxDist && int64(dist) <= seq {
				t = max(t, c.done[(seq-int64(dist))&c.mask])
			}
		}
		for {
			if t-c.cycle >= int64(len(c.slots)) {
				c.growSlots(t - c.cycle + 1)
			}
			if s := &c.slots[t&c.slotMask]; *s < width {
				*s++
				break
			}
			t++
		}
		c.done[seq&c.mask] = t + lat
		c.seq = seq + 1
	}
	c.occ += len(g)
	c.stats.Instrs += int64(len(g))
}

// loadLat applies the deterministic load attachment to one dispatched
// instruction, returning its extra latency. Called once per dispatched
// instruction in dispatch order while loads are attached, so the memLat
// call sequence — and any external state it advances (the combined
// machine's cache hierarchy) — is that of the scan model.
func (c *Core) loadLat() int64 {
	c.loadAcc += c.loadRPI
	if c.loadAcc < 1 {
		return 0
	}
	c.loadAcc--
	// Memory operation: the hierarchy's stall cycles extend the
	// consumer-visible latency.
	return c.memLat(false)
}

// recycleGuard grows the completion ring if the slot about to be claimed for
// c.seq still belongs to an instruction that completes after the current
// cycle. The ring thus holds every in-flight completion, and the claimed
// slot's old value is at or before the current cycle, so dispatch may read
// it for an absent (distance-0) source without a branch. In practice the
// guard never fires — it takes ring-size dispatches to lap a slot, which at
// 8-wide dispatch leaves ~1000 cycles for the instruction to complete — but
// it keeps the ring safe against arbitrary RunWithLoads latencies by
// construction.
func (c *Core) recycleGuard() {
	for c.done[c.seq&c.mask] > c.cycle {
		c.growRing(2 * len(c.done))
	}
}

// Drain forces the core to issue (without dispatching) until the window
// occupancy is at most max, modelling the cleanup required before disabling
// queue entries when downsizing (paper Sections 4.2 and 5.1). The stall
// cycles are recorded in DrainStalls. Entries whose operands are not yet
// ready simply wait; plentiful functional units guarantee forward progress.
// Draining never dispatches, so stall gaps fast-forward the same way Step's
// full-window path does.
func (c *Core) Drain(max int) {
	if max < 0 {
		max = 0
	}
	for c.occ > max {
		c.cycle++
		d := c.idleSkip()
		c.stats.Cycles += 1 + d
		c.stats.DrainStalls += 1 + d
		c.issue()
	}
}

// Resize changes the window size, draining first when shrinking. Growing is
// immediate (newly enabled entries start empty). Returns an error for
// non-positive or unsupported sizes. Dispatched instructions keep their
// issue cycles: the window size only limits how many instructions dispatch.
func (c *Core) Resize(newSize int) error {
	if newSize < 1 || newSize >= maxDist {
		return fmt.Errorf("ooo: window size %d out of range", newSize)
	}
	if newSize < c.occ {
		c.Drain(newSize)
	}
	if need := ringSize(newSize); need > len(c.done) {
		c.growRing(need)
	}
	c.cfg.WindowSize = newSize
	c.assertCheck()
	return nil
}

// growRing rehomes the completion ring into a larger power-of-two array,
// preserving the slots of every sequence number the old ring still covered.
// Slots older than the old ring's span land zeroed: retired, result
// available.
func (c *Core) growRing(need int) {
	c.tal.ringGrows++
	old, oldMask := c.done, c.mask
	c.done = make([]int64, need)
	c.mask = int64(need - 1)
	lo := c.seq - int64(len(old))
	if lo < 0 {
		lo = 0
	}
	for s := lo; s < c.seq; s++ {
		c.done[s&c.mask] = old[s&oldMask]
	}
}

// growSlots rehomes the issue-count ring into a power-of-two array of at
// least span cycles (and at least twice its length), preserving the counts
// of cycles [cycle, cycle+len(old)).
func (c *Core) growSlots(span int64) {
	n := 2 * len(c.slots)
	for int64(n) < span {
		n <<= 1
	}
	old, oldMask := c.slots, c.slotMask
	c.slots = make([]int32, n)
	c.slotMask = int64(n - 1)
	for t := c.cycle; t < c.cycle+int64(len(old)); t++ {
		c.slots[t&c.slotMask] = old[t&oldMask]
	}
}

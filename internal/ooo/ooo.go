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
// ready queue, no per-cycle walk of the window. One kernel, run, holds the
// dispatch and issue logic and serves every entry point (Run, Drain,
// MultiCore); see it for the exactness argument. The direct model — every
// cycle re-scans the window oldest-first, waking and selecting in one pass —
// is the executable specification the engine is verified against; it lives
// in scan_test.go.
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
// in-flight slack. For every legal window (1 to maxDist-1) this is 8192
// slots (64 KB) — 8× smaller than the fixed 512 KB ring it replaces, which matters
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
	// a power of two, sized by ringSize at New; ringSize is the same for
	// every legal window, so Resize keeps it. Only run's recycle guard grows
	// it, and it never shrinks.
	done []int64
	mask int64

	// slots[t & slotMask] counts the dispatched instructions whose issue
	// cycle is t, for t in [cycle, cycle+len(slots)); the count for cycle t
	// is consumed (zeroed) when t's issue phase runs. A power of two.
	slots    []int32
	slotMask int64

	// group is Run's dispatch-group buffer (IssueWidth instructions).
	group []workload.Instr

	// Load attachment (RunWithLoads): every 1/loadRPI-th dispatched
	// instruction becomes a memory operation whose extra latency is
	// drawn from memLat. Zero-valued = disabled (perfect caches).
	//
	// loadAcc is the fractional-load accumulator. It deliberately
	// persists across RunWithLoads calls: the joint machine runs in
	// intervals, and the deterministic refs-per-instruction spacing must
	// continue across interval boundaries rather than restart (the
	// accumulator carrying, say, 0.7 into the next interval makes its
	// first load arrive one instruction earlier, exactly as if the run
	// had not been split). TestRunWithLoadsCarryOver pins this.
	loadRPI float64
	loadAcc float64
	memLat  func(write bool) int64
	extra   []int64 // the dispatch group's load latencies (IssueWidth)

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
		extra:    make([]int64, cfg.IssueWidth),
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

// Run simulates until n more instructions have been issued, pulling from the
// stream as needed, and returns the statistics delta for this run. Issued
// instructions are the paper's measurement unit (TPI over a fixed
// instruction count). Run reads exactly the instructions it dispatches: one
// dispatch group at a time, each fed to the kernel, which keeps going
// through full-window cycles (they read nothing) and returns for the next.
func (c *Core) Run(stream workload.InstrSource, n int64) Stats {
	before := c.stats
	target := c.stats.Issued + n
	for c.stats.Issued < target {
		c.run(c.fetch(stream), target, c.cfg.WindowSize, &c.stats.WindowFullCy)
	}
	return c.stats.Sub(before)
}

// RunWithLoads is Run with the perfect-cache assumption removed: a
// deterministic rpi fraction of dispatched instructions become memory
// operations whose extra completion latency is supplied by memLat (cycles
// beyond a pipelined L1 hit), coupling the adaptive queue to a live
// adaptive cache hierarchy. Production runs its one-pass form,
// MultiCore.RunEachWithLoads; RunWithLoads is the per-core reference the
// ooo tests and core's CombinedMachine test oracle use.
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

// attachLoads enables the deterministic load attachment for subsequent
// kernel calls: every 1/rpi-th dispatched instruction draws extra latency
// from memLat. The fractional accumulator is deliberately left untouched so
// interval splits preserve load placement (see loadAcc). MultiCore attaches
// per-core closures around its shared-stream rounds.
func (c *Core) attachLoads(rpi float64, memLat func(write bool) int64) {
	c.loadRPI, c.memLat = min(max(rpi, 0), 1), memLat
}

// detachLoads restores the perfect-cache assumption (accumulator preserved).
func (c *Core) detachLoads() { c.loadRPI, c.memLat = 0, nil }

// fetch reads the next cycle's dispatch group from the stream into the
// group buffer: IssueWidth instructions, capped by the free window entries.
// The front end is perfect, so it always has instructions.
func (c *Core) fetch(stream workload.InstrSource) []workload.Instr {
	g := c.group[:min(c.cfg.IssueWidth, c.cfg.WindowSize-c.occ)]
	for i := range g {
		g[i] = stream.Next()
	}
	return g
}

// run is the issue kernel, the one place the core dispatches and issues.
// It simulates cycles over buf, the instructions this core dispatches next,
// and returns how many it dispatched. It simulates at least one cycle — the
// caller guarantees buf covers that cycle's group — and then continues
// while fewer than target instructions have issued (in Stats.Issued terms)
// and buf holds a full IssueWidth group or the window is full (a full-window
// cycle reads nothing). window caps occupancy; every cycle that dispatches
// nothing counts in *stalls: WindowFullCy for Run, DrainStalls for Drain.
//
// Each cycle advances the clock, dispatches min(IssueWidth, window −
// occupancy) instructions, fixing each one's issue cycle on the spot, then
// issues the instructions whose issue cycle this is: it retires the cycle's
// count from the slot ring.
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
// cycle t, which reproduces the scan's same-pass wakeup. The window size
// enters only through how many instructions dispatch each cycle, which is
// why Drain and Resize need no per-entry work.
//
// A cycle that dispatches nothing with a non-empty window (full, or
// draining) and issues nothing is a pure stall, as is every cycle up to the
// next non-zero issue count: the kernel fast-forwards there (idle skip),
// crediting each skipped cycle as one more stall. The search ends inside
// the ring, since every unissued instruction holds a count in
// [cycle, cycle+len(slots)).
//
// The machine state — clock, seq, occupancy, both rings with their masks,
// the load accumulator, the stall and idle-skip tallies — lives in locals
// and is written back once, at return. The Stats counters are derived from
// it: Cycles moves with the clock, Instrs with seq, and seq − occupancy
// counts every instruction ever issued, so the issue target and lookahead
// limit are plain bounds on locals. The dispatch loop makes no calls, so
// the register allocator keeps its state out of memory: memLat runs for
// the whole group before it, and ring growth breaks out of it, writes the
// clock and seq back, grows, reloads the ring and resumes the group.
func (c *Core) run(buf []workload.Instr, target int64, window int, stalls *int64) int {
	width := c.cfg.IssueWidth
	cycle, seq, occ := c.cycle, c.seq, c.occ
	cycle0, seq0, issued0 := cycle, seq, seq-int64(occ)
	goal := issued0 + target - c.stats.Issued
	lim := seq0 + int64(len(buf)) - int64(width)
	done, mask := c.done, c.mask
	slots, slotMask := c.slots, c.slotMask
	rpi, acc, extra := c.loadRPI, c.loadAcc, c.extra
	var stalled, skipped int64
	for {
		cycle++
		n := width
		if free := window - occ; free < n {
			n = max(free, 0)
			if n == 0 {
				from := cycle
				for slots[cycle&slotMask] == 0 {
					cycle++
				}
				skipped += cycle - from
				stalled += 1 + cycle - from
			}
		}
		g := buf[seq-seq0:][:n]
		if rpi > 0 {
			// Load attachment, once per dispatched instruction in
			// dispatch order, so the memLat call sequence — and any state
			// it advances (the combined machine's cache hierarchy) — is
			// that of the scan model. The calls precede the group's
			// dispatch, which they cannot observe.
			for i := range g {
				extra[i] = 0
				if acc += rpi; acc >= 1 {
					acc--
					extra[i] = c.memLat(false)
				}
			}
		}
		for i := 0; ; {
			// need is the span a grown issue-count ring must cover, when
			// the group stops short for ring growth.
			var need int64
		group:
			for ; i < len(g); i++ {
				s := seq + int64(i)
				// Recycle guard: the completion ring grows if the slot
				// about to be claimed still belongs to an instruction
				// completing after this cycle. The ring thus holds every
				// in-flight completion, and the claimed slot's old value
				// is at or before the current cycle, so a distance-0
				// (absent) source may read it without a branch. It takes
				// ring-size dispatches to lap a slot, so in practice only
				// enormous RunWithLoads latencies trip it.
				if done[s&mask] > cycle {
					break
				}
				lat := int64(g[i].Latency)
				if rpi > 0 {
					lat += extra[i]
				}
				// A producer beyond the tracked horizon (or a negative
				// distance) is retired, its result available. A producer
				// before program start maps to a slot not yet written
				// (zero): the ring is longer than maxDist, so while
				// s < maxDist the slots behind seq 0 lie past s.
				d0, d1 := g[i].Src[0], g[i].Src[1]
				r0, r1 := done[(s-int64(d0))&mask], done[(s-int64(d1))&mask]
				if uint32(d0) >= maxDist {
					r0 = 0
				}
				if uint32(d1) >= maxDist {
					r1 = 0
				}
				t := later(later(cycle, r0), r1)
				for {
					if t-cycle >= int64(len(slots)) {
						need = t - cycle + 1
						break group
					}
					if k := &slots[t&slotMask]; int(*k) < width {
						*k++
						break
					}
					t++
				}
				done[s&mask] = t + lat
			}
			if i == len(g) {
				break
			}
			// A ring must grow before instruction i can dispatch; the
			// growth reads the clock and seq back from the core.
			c.cycle, c.seq = cycle, seq+int64(i)
			if need > 0 {
				c.growSlots(need)
				slots, slotMask = c.slots, c.slotMask
			} else {
				c.growRing(2 * len(done))
				done, mask = c.done, c.mask
			}
		}
		seq += int64(n)
		occ += n
		k := &slots[cycle&slotMask]
		occ -= int(*k)
		*k = 0
		if seq-int64(occ) >= goal || seq > lim && occ < window {
			break
		}
	}
	c.stats.Cycles += cycle - cycle0
	c.stats.Instrs += seq - seq0
	c.stats.Issued += seq - int64(occ) - issued0
	*stalls += stalled
	c.tal.idleSkipped += skipped
	c.cycle, c.seq, c.occ, c.loadAcc = cycle, seq, occ, acc
	return int(seq - seq0)
}

// later returns the later of two cycles without a branch: whether a
// producer completes after the clock is data the branch predictor keeps
// missing, and the compiler keeps a branch for max inside loops.
func later(a, b int64) int64 {
	d := a - b
	return a - d&(d>>63)
}

// Drain forces the core to issue (without dispatching) until the window
// occupancy is at most level, modelling the cleanup required before
// disabling queue entries when downsizing (paper Sections 4.2 and 5.1). The
// stall cycles are recorded in DrainStalls. Entries whose operands are not
// yet ready simply wait; plentiful functional units guarantee forward
// progress. It is the kernel run over a window of level entries, which
// dispatches nothing until occupancy falls to level — exactly the issue
// target — so every cycle is a drain stall and gaps fast-forward as in Run.
func (c *Core) Drain(level int) {
	if level = max(level, 0); c.occ > level {
		c.run(nil, c.stats.Issued+int64(c.occ-level), level, &c.stats.DrainStalls)
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
	c.cfg.WindowSize = newSize
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

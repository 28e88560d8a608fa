package ooo

import "capsim/internal/workload"

// This file is the event-driven wakeup/select engine (the one New builds): the
// algorithmically fast replacement for the per-cycle window scan, bit-exact
// by construction.
//
// What the scan does, restated as events. The scan engine walks the window
// oldest-first every cycle; an entry issues the first cycle in which (a) all
// its producers' completion cycles are known, (b) its readiness cycle
// max(producer completion) has arrived, and (c) fewer than IssueWidth older
// ready entries exist this cycle. Because every producer has a strictly
// smaller sequence number than its consumers, the oldest-first pass
// guarantees a producer issuing in a pass is visible to its consumers later
// in the same pass — the atomic-wakeup property that lets single-cycle
// dependent pairs issue back to back.
//
// The event engine computes the same fixpoint without touching waiting
// entries:
//
//   - Wakeup: each window slot carries a consumer list threaded through the
//     consumers' own slots (two link fields per consumer, one per source
//     operand, so the lists need no allocation). When a producer issues, its
//     completion cycle is pushed to exactly the entries that were waiting on
//     it; an entry whose last pending producer resolves computes its
//     readiness cycle max over sources — the same max the scan's resolve
//     takes.
//   - Select: entries whose readiness cycle has arrived sit in `eligible`, a
//     min-heap of packed (seq<<slotBits | slot) keys — ordered by sequence
//     number, with the slot index riding along so sift comparisons never
//     dereference the slot slab. Each cycle pops up to IssueWidth keys.
//   - Future: entries ready within the next nearBuckets cycles sit in a
//     rotating calendar — near[readyAt & nearMask] is a plain slice, append
//     on wakeup, drained wholesale when its cycle arrives (the span never
//     exceeds the bucket count, so a bucket holds exactly one cycle's
//     entries). Entries ready further out (long RunWithLoads stalls) go to
//     `far`, a min-heap ordered by (readyAt, seq). Completion latencies in
//     the paper's workloads are single digits, so the far heap is cold.
//
// Why seq-ordered eligibility (rather than one (ready, seq) structure)
// reproduces the oldest-first priority encoder exactly: among entries whose
// readiness has arrived, the scan issues strictly by seq — how long ago an
// entry became ready is irrelevant, only age is — so leftover entries (ready
// in earlier cycles but squeezed out by the width limit) must merge with
// entries becoming ready this cycle in pure seq order. That is precisely the
// calendar/eligible split: the calendar needs readiness order only to find
// which entries become eligible at each cycle boundary; once eligible, seq
// alone decides. A single heap ordered by (ready, seq) would be wrong: it
// would prefer an entry that became ready earlier over an older entry that
// became ready later, which a priority encoder never does.
//
// Mid-select wakeups preserve the same-pass visibility invariant: a consumer
// woken by an issue this cycle has a larger seq than the issuing producer,
// so pushing it into `eligible` mid-pass keeps the heap's extraction order
// identical to the scan's single oldest-first walk.

// nilLink terminates consumer lists.
const nilLink = int32(-1)

// slotBits is the width of the slot-index field in packed eligible keys.
// Window sizes are capped below maxDist = 1<<11, so a slot index always
// fits; seq occupies the bits above and dominates the ordering (seqs are
// unique, so the slot bits never decide a comparison).
const (
	slotBits = 11
	slotMask = 1<<slotBits - 1
)

// nearBuckets is the rotating-calendar span: wakeups landing within this
// many cycles take the O(1) bucket path; later ones take the far heap.
// Must be a power of two and cover the workload latency range (≤ 12).
const (
	nearBuckets = 16
	nearMask    = nearBuckets - 1
)

// eslot is one window entry in the event engine's slab. Slots are reused
// through the free list; indices are stable handles while an entry is live.
type eslot struct {
	seq     int64 // dynamic instruction number (issue priority)
	readyAt int64 // max completion cycle over resolved sources so far
	lat     int64 // completion latency beyond issue
	head    int32 // consumer list head: handle = consumerSlot<<1 | srcIndex
	next    [2]int32
	npend   int32 // producers still unissued
}

// farEnt is one far-calendar entry: the readiness cycle and the packed
// (seq, slot) key, kept inline so heap sifts stay within one contiguous
// array.
type farEnt struct {
	ready int64
	key   int64
}

// eventState is the event engine's per-core state. All capacity is reserved
// in init/grow; the steady-state hot path performs no allocation (bucket and
// heap slices keep their capacity across drains).
type eventState struct {
	slots []eslot
	free  []int32 // free slot indices (LIFO)
	occ   int

	// slotOf[seq & mask] is the live slot of a pending producer; valid only
	// while done[seq & mask] == pending. Parallel to Core.done.
	slotOf []int32

	// eligible is a min-heap of packed seq<<slotBits|slot keys: entries
	// whose readiness cycle has arrived, awaiting select.
	eligible []int64
	// near[readyAt & nearMask] holds entries becoming ready at that cycle,
	// for readyAt within (cycle, cycle+nearBuckets].
	near [nearBuckets][]int32
	// far is a min-heap by (ready, key) for readiness beyond the calendar.
	far []farEnt
}

// init sizes the slab and heaps for a window and the ring-parallel slot map.
func (ev *eventState) init(window, ring int) {
	ev.slots = make([]eslot, window)
	ev.free = make([]int32, window)
	for i := range ev.free {
		// LIFO pop order: slot 0 first, purely cosmetic.
		ev.free[i] = int32(window - 1 - i)
	}
	ev.slotOf = make([]int32, ring)
	ev.eligible = make([]int64, 0, window)
}

// grow extends the slab, free list and heap reservations to a new window
// size (shrinking keeps capacity: Resize may grow again later and the slack
// is small).
func (ev *eventState) grow(window int) {
	for len(ev.slots) < window {
		ev.free = append(ev.free, int32(len(ev.slots)))
		ev.slots = append(ev.slots, eslot{})
	}
	if cap(ev.eligible) < window {
		h := make([]int64, len(ev.eligible), window)
		copy(h, ev.eligible)
		ev.eligible = h
	}
}

// fileReady routes an entry whose readiness cycle just became known into the
// select pool (readiness arrived), the near calendar, or the far heap.
func (c *Core) fileReady(si int32, s *eslot) {
	ev := &c.ev
	key := s.seq<<slotBits | int64(si)
	switch d := s.readyAt - c.cycle; {
	case d <= 0:
		c.tal.filedDirect++
		ev.pushEligible(key)
	case d < nearBuckets:
		c.tal.filedNear++
		// Strict inequality: dispatch files entries before this cycle's
		// bucket is drained, so readyAt = cycle+nearBuckets would land in
		// the about-to-drain bucket and wake a full rotation early. d <
		// nearBuckets keeps every live bucket entry's readyAt within
		// (cycle, cycle+nearBuckets), distinct mod nearBuckets and never
		// aliasing the current cycle's bucket.
		b := s.readyAt & nearMask
		ev.near[b] = append(ev.near[b], si)
	default:
		c.tal.filedFar++
		ev.pushFar(farEnt{ready: s.readyAt, key: key})
	}
}

// dispatchEvent dispatches n instructions: allocate a slot, resolve each
// source against the completion ring, and either link the entry onto the
// pending producers' consumer lists or, with all sources resolved, file it
// directly into the ready structures. A dispatched entry whose readiness
// cycle has already arrived is eligible in this very cycle's select, exactly
// as the scan (which dispatches before its wakeup+select pass) would see it.
func (c *Core) dispatchEvent(stream workload.InstrSource, n int) {
	ev := &c.ev
	for i := 0; i < n; i++ {
		in := stream.Next()
		c.recycleGuard()
		seq := c.seq
		c.seq++
		c.stats.Instrs++
		lat := c.instrLat(in)

		si := ev.free[len(ev.free)-1]
		ev.free = ev.free[:len(ev.free)-1]
		s := &ev.slots[si]
		s.seq, s.lat = seq, lat
		s.readyAt = 0
		s.npend = 0
		s.head = nilLink
		s.next[0], s.next[1] = nilLink, nilLink

		for k := 0; k < 2; k++ {
			p := c.producer(seq, in.Src[k])
			if p < 0 {
				continue
			}
			t, pend := c.lookupDone(p)
			if pend {
				ps := ev.slotOf[p&c.mask]
				s.next[k] = ev.slots[ps].head
				ev.slots[ps].head = si<<1 | int32(k)
				s.npend++
			} else if t > s.readyAt {
				s.readyAt = t
			}
		}

		c.done[seq&c.mask] = pending
		ev.slotOf[seq&c.mask] = si
		ev.occ++
		if s.npend == 0 {
			c.fileReady(si, s)
		}
	}
}

// idleSkip advances the clock directly to the next cycle with scheduled
// readiness, returning how many cycles were skipped (0 when this cycle has —
// or may have — work). Callers invoke it only on cycles with no dispatch
// (full window, or draining): in that state nothing reads the stream, no
// wakeup can fire (wakeups only follow issues), and the select pool is empty,
// so every cycle until the earliest calendar/far readiness is a pure stall —
// the per-cycle loop would do nothing but increment counters. Skipping d
// cycles is therefore exact as long as the caller adds d to the same counters
// the loop would have bumped (Cycles plus WindowFullCy or DrainStalls).
//
// The span invariant survives the jump: live near-bucket entries have readyAt
// in (oldCycle, oldCycle+nearBuckets), the jump lands on the minimum such
// readyAt (or the far minimum, whichever is earlier), so afterwards every
// entry still satisfies cycle <= readyAt < cycle+nearBuckets and this cycle's
// bucket is exactly the entries now due. A non-empty window always has a
// scheduled readiness (eligible, near or far): entries waiting on producers
// chain down to an oldest entry whose sources are all resolved.
func (c *Core) idleSkip() int64 {
	ev := &c.ev
	if len(ev.eligible) > 0 || len(ev.near[c.cycle&nearMask]) > 0 {
		return 0
	}
	if len(ev.far) > 0 && ev.far[0].ready <= c.cycle {
		return 0
	}
	next := int64(-1)
	for d := int64(1); d < nearBuckets; d++ {
		if len(ev.near[(c.cycle+d)&nearMask]) > 0 {
			next = c.cycle + d
			break
		}
	}
	if len(ev.far) > 0 && (next < 0 || ev.far[0].ready < next) {
		next = ev.far[0].ready
	}
	if next < 0 {
		return 0
	}
	d := next - c.cycle
	c.cycle = next
	c.tal.idleSkipped += d
	return d
}

// issueCycleEvent performs one wakeup+select pass at the current cycle.
func (c *Core) issueCycleEvent() {
	ev := &c.ev

	// Cycle-boundary wakeup: entries whose readiness cycle has arrived
	// join the select pool. The calendar bucket for this cycle holds
	// exactly the entries with readyAt == cycle (the span invariant);
	// the far heap surfaces anything longer-latency that is now due.
	if b := c.cycle & nearMask; len(ev.near[b]) > 0 {
		for _, si := range ev.near[b] {
			s := &ev.slots[si]
			ev.pushEligible(s.seq<<slotBits | int64(si))
		}
		ev.near[b] = ev.near[b][:0]
	}
	for len(ev.far) > 0 && ev.far[0].ready <= c.cycle {
		ev.pushEligible(ev.popFar().key)
	}

	issued := 0
	for issued < c.cfg.IssueWidth && len(ev.eligible) > 0 {
		si := int32(ev.popEligible() & slotMask)
		s := &ev.slots[si]
		t := c.cycle + s.lat
		c.done[s.seq&c.mask] = t
		c.stats.Issued++
		issued++
		ev.occ--

		// Producer-completion wakeup: push t to every consumer that was
		// waiting on this entry. Consumers have larger seqs, so any that
		// become eligible merge behind the current heap position —
		// preserving the scan's same-pass visibility.
		h := s.head
		s.head = nilLink
		for h != nilLink {
			c.tal.wakeups++
			ci := h >> 1
			k := h & 1
			cs := &ev.slots[ci]
			h = cs.next[k]
			cs.next[k] = nilLink
			if t > cs.readyAt {
				cs.readyAt = t
			}
			cs.npend--
			if cs.npend == 0 {
				c.fileReady(ci, cs)
			}
		}
		ev.free = append(ev.free, si)
	}
}

// --- heaps ---------------------------------------------------------------
//
// Hand-rolled binary heaps with inline keys: sift comparisons are plain
// int64 compares within one contiguous array — no pointer chase into the
// slot slab, no interface box, no callback (container/heap would force
// both in the hottest loop).

func (ev *eventState) pushEligible(key int64) {
	h := append(ev.eligible, key)
	ev.eligible = h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (ev *eventState) popEligible() int64 {
	h := ev.eligible
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	ev.eligible = h[:n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r] < h[l] {
			m = r
		}
		if h[i] <= h[m] {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// farLess orders far entries by (ready, key); keys embed seq in their high
// bits, so the tiebreak is by age, mirroring the calendar-drain order.
func farLess(a, b farEnt) bool {
	if a.ready != b.ready {
		return a.ready < b.ready
	}
	return a.key < b.key
}

func (ev *eventState) pushFar(e farEnt) {
	h := append(ev.far, e)
	ev.far = h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !farLess(h[i], h[p]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (ev *eventState) popFar() farEnt {
	h := ev.far
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	ev.far = h[:n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && farLess(h[r], h[l]) {
			m = r
		}
		if !farLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

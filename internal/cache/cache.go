// Package cache implements the complexity-adaptive two-level on-chip data
// cache hierarchy of the CAP paper (Section 5.2) as a trace-driven
// simulator.
//
// The hardware structure is a stack of identical cache increments — complete
// subcaches each containing tags, status and data — connected by optimally
// buffered global address and data buses (Figure 6 of the paper). A movable
// boundary assigns the first k increments to the L1 Dcache and the remaining
// increments to the L2. The mapping rule keeps the set index constant: as an
// increment moves across the boundary the cache's size AND associativity
// grow or shrink together, so a block's set never changes and reconfiguring
// never requires invalidation or data movement. Caching is exclusive: a
// block lives in exactly one increment, so after moving the boundary every
// block is still in exactly one of L1 or L2.
//
// The simulator models blocking caches and ignores access conflicts, exactly
// as the paper's methodology states.
package cache

import (
	"fmt"
	"math/bits"

	"capsim/internal/cacti"
	"capsim/internal/memo"
	"capsim/internal/tech"
	"capsim/internal/wire"
)

// Params describes the physical organization of the adaptive hierarchy.
type Params struct {
	// Increments is the number of cache increments in the structure.
	// The paper's design uses 16.
	Increments int
	// IncrementBytes is the capacity of one increment. The paper uses 8 KB.
	IncrementBytes int
	// IncrementAssoc is the associativity of one increment. The paper's
	// increments are 2-way set associative (and two-way banked, which
	// affects timing, not hit/miss behaviour).
	IncrementAssoc int
	// BlockBytes is the cache block size.
	BlockBytes int
	// Feature selects the process generation for timing.
	Feature tech.FeatureSize
}

// PaperParams returns the configuration evaluated in the paper: a 128 KB
// structure of 16 increments, each 8 KB 2-way, at 0.18 micron. Block size is
// 32 bytes (R10000-class L1 lines).
func PaperParams() Params {
	return Params{
		Increments:     16,
		IncrementBytes: 8 * 1024,
		IncrementAssoc: 2,
		BlockBytes:     32,
		Feature:        tech.Micron018,
	}
}

// Validate reports whether the parameters are consistent.
func (p Params) Validate() error {
	switch {
	case p.Increments < 2:
		return fmt.Errorf("cache: need at least 2 increments, got %d", p.Increments)
	case p.IncrementBytes <= 0:
		return fmt.Errorf("cache: increment size %d must be positive", p.IncrementBytes)
	case p.IncrementAssoc <= 0:
		return fmt.Errorf("cache: increment associativity %d must be positive", p.IncrementAssoc)
	case p.BlockBytes <= 0 || p.BlockBytes&(p.BlockBytes-1) != 0:
		return fmt.Errorf("cache: block size %d must be a positive power of two", p.BlockBytes)
	case p.IncrementBytes%(p.BlockBytes*p.IncrementAssoc) != 0:
		return fmt.Errorf("cache: increment %dB not divisible by block*assoc", p.IncrementBytes)
	}
	return tech.CheckFeature("cache", p.Feature)
}

// Sets returns the number of sets — constant regardless of the boundary,
// which is the property that makes reconfiguration cheap.
func (p Params) Sets() int { return p.IncrementBytes / (p.BlockBytes * p.IncrementAssoc) }

// TotalWays returns the total associativity of the whole structure.
func (p Params) TotalWays() int { return p.Increments * p.IncrementAssoc }

// L1Bytes returns the L1 capacity for boundary k.
func (p Params) L1Bytes(k int) int { return k * p.IncrementBytes }

// L1Assoc returns the L1 associativity for boundary k (the mapping rule
// grows associativity with size).
func (p Params) L1Assoc(k int) int { return k * p.IncrementAssoc }

// Boundaries returns the legal boundary positions [minL1..maxL1] in
// increments. At least one increment must remain on each side so both levels
// exist; the paper additionally limits its exploration to L1 <= 64 KB (half
// the structure), which callers impose themselves.
func (p Params) Boundaries() (min, max int) { return 1, p.Increments - 1 }

// way holds one block frame.
type way struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-use stamp; larger = more recent
}

// Indexer precomputes the address -> (set, tag) decomposition for a
// geometry. The block size is a power of two (Validate enforces it), so the
// block extraction is a shift; when the set count is also a power of two —
// true of every geometry the paper evaluates — the division and modulus
// collapse to a shift and a mask, which removes two 64-bit divisions from
// the per-reference hot path (BenchmarkIndexPow2 vs BenchmarkIndexNonPow2).
// The general path remains for non-power-of-two set counts and produces
// identical values. The trace package's decoded reference views use the
// same Indexer, so a decoded stream and a live Hierarchy agree by
// construction.
type Indexer struct {
	sets       uint64
	pow2       bool
	blockShift uint
	setMask    uint64
	setShift   uint
}

// NewIndexer builds the indexer for blockBytes-byte blocks (a positive power
// of two) over sets sets (positive); callers validate both first.
func NewIndexer(blockBytes, sets int) Indexer {
	ix := Indexer{
		sets:       uint64(sets),
		blockShift: uint(bits.TrailingZeros(uint(blockBytes))),
	}
	if sets&(sets-1) == 0 {
		ix.pow2 = true
		ix.setShift = uint(bits.TrailingZeros(uint(sets)))
		ix.setMask = uint64(sets - 1)
	}
	return ix
}

// Index extracts the set index and tag for an address.
func (ix Indexer) Index(addr uint64) (set int, tag uint64) {
	// The shift counts are below 64 by construction; masking them says so
	// to the compiler, which then drops its oversized-shift fixups.
	block := addr >> (ix.blockShift & 63)
	if ix.pow2 {
		return int(block & ix.setMask), block >> (ix.setShift & 63)
	}
	return int(block % ix.sets), block / ix.sets
}

// Hierarchy is the runtime state of the adaptive cache structure.
type Hierarchy struct {
	p        Params
	ix       Indexer
	boundary int // increments assigned to L1
	sets     [][]way
	stamp    uint64
	stats    Stats
}

// Stats accumulates access outcomes. Misses are counted hierarchically: an
// L2Miss implies the reference also missed in L1.
type Stats struct {
	Refs       uint64
	Writes     uint64
	L1Misses   uint64 // references that missed in L1 (hit L2 or memory)
	L2Misses   uint64 // references that also missed in L2 (went to memory)
	Swaps      uint64 // exclusive L1<->L2 block exchanges
	Writebacks uint64 // dirty blocks evicted from the structure
}

// New creates a hierarchy with the L1/L2 boundary after `boundary`
// increments.
func New(p Params, boundary int) (*Hierarchy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	min, max := p.Boundaries()
	if boundary < min || boundary > max {
		return nil, fmt.Errorf("cache: boundary %d outside [%d,%d]", boundary, min, max)
	}
	sets := make([][]way, p.Sets())
	backing := make([]way, p.Sets()*p.TotalWays())
	for i := range sets {
		sets[i], backing = backing[:p.TotalWays():p.TotalWays()], backing[p.TotalWays():]
	}
	return &Hierarchy{p: p, ix: NewIndexer(p.BlockBytes, p.Sets()), boundary: boundary, sets: sets}, nil
}

// MustNew is New but panics on error; for tests and tables of known-good
// configurations.
func MustNew(p Params, boundary int) *Hierarchy {
	h, err := New(p, boundary)
	if err != nil {
		panic(err)
	}
	return h
}

// Boundary returns the current L1/L2 boundary in increments.
func (h *Hierarchy) Boundary() int { return h.boundary }

// Stats returns the accumulated statistics.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ResetStats zeroes the counters without touching cache contents (used when
// discarding warm-up references).
func (h *Hierarchy) ResetStats() { h.stats = Stats{} }

// SetBoundary moves the L1/L2 boundary. Thanks to exclusivity and the
// constant index mapping this requires no flush: blocks keep their frames
// and are merely relabeled as L1 or L2. It returns an error if k is illegal.
func (h *Hierarchy) SetBoundary(k int) error {
	min, max := h.p.Boundaries()
	if k < min || k > max {
		return fmt.Errorf("cache: boundary %d outside [%d,%d]", k, min, max)
	}
	h.boundary = k
	return nil
}

// l1Ways returns the number of ways belonging to L1.
func (h *Hierarchy) l1Ways() int { return h.boundary * h.p.IncrementAssoc }

// Level identifies where a reference was satisfied.
type Level int

// Access outcome levels.
const (
	L1Hit Level = iota
	L2Hit
	Miss // satisfied from memory
)

func (l Level) String() string {
	switch l {
	case L1Hit:
		return "L1"
	case L2Hit:
		return "L2"
	default:
		return "memory"
	}
}

// index extracts the set index and tag for an address via the precomputed
// shift/mask (or div/mod) Indexer.
func (h *Hierarchy) index(addr uint64) (set int, tag uint64) {
	return h.ix.Index(addr)
}

// Access performs one data reference and returns the level that satisfied
// it, updating LRU state, performing exclusive swaps and fills, and
// accumulating statistics.
func (h *Hierarchy) Access(addr uint64, write bool) Level {
	h.stamp++
	h.stats.Refs++
	if write {
		h.stats.Writes++
	}
	setIdx, tag := h.index(addr)
	set := h.sets[setIdx]
	l1w := h.l1Ways()

	// Probe: every increment does local hit/miss determination in
	// parallel; exclusivity guarantees at most one hit anywhere.
	hit := -1
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			hit = i
			break
		}
	}

	switch {
	case hit >= 0 && hit < l1w: // L1 hit
		set[hit].lru = h.stamp
		if write {
			set[hit].dirty = true
		}
		return L1Hit

	case hit >= 0: // L2 hit: swap with the L1 victim to preserve exclusion
		h.stats.L1Misses++
		h.stats.Swaps++
		victim := h.lruWay(set, 0, l1w)
		set[victim], set[hit] = set[hit], set[victim]
		set[victim].lru = h.stamp
		// The demoted block keeps its dirty bit in L2; the promoted
		// block becomes dirty on a write.
		if write {
			set[victim].dirty = true
		}
		set[hit].lru = h.stamp // demoted block is MRU within L2
		return L2Hit

	default: // structure miss: fill from memory into L1
		h.stats.L1Misses++
		h.stats.L2Misses++
		victim := h.lruWay(set, 0, l1w)
		if set[victim].valid {
			// Demote the L1 victim into L2, evicting L2's LRU.
			l2victim := h.lruWay(set, l1w, len(set))
			if set[l2victim].valid && set[l2victim].dirty {
				h.stats.Writebacks++
			}
			set[l2victim] = set[victim]
		}
		set[victim] = way{tag: tag, valid: true, dirty: write, lru: h.stamp}
		return Miss
	}
}

// lruWay returns the index of the least-recently-used way in set[lo:hi],
// preferring invalid frames.
func (h *Hierarchy) lruWay(set []way, lo, hi int) int {
	if hi <= lo {
		// Degenerate slice (e.g. an empty L2 range); callers guarantee
		// at least one way per level via Boundaries, so this is a bug.
		panic("cache: empty way range")
	}
	best := lo
	for i := lo; i < hi; i++ {
		if !set[i].valid {
			return i
		}
		if set[i].lru < set[best].lru {
			best = i
		}
	}
	return best
}

// Contains reports whether the block holding addr is present, and at which
// level. Used by invariant tests.
func (h *Hierarchy) Contains(addr uint64) (Level, bool) {
	setIdx, tag := h.index(addr)
	set := h.sets[setIdx]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			if i < h.l1Ways() {
				return L1Hit, true
			}
			return L2Hit, true
		}
	}
	return Miss, false
}

// BlockCount returns the number of valid blocks currently resident (L1+L2).
func (h *Hierarchy) BlockCount() int {
	n := 0
	for _, set := range h.sets {
		for i := range set {
			if set[i].valid {
				n++
			}
		}
	}
	return n
}

// CheckExclusive verifies the exclusivity invariant: no tag appears twice
// within a set. It returns an error naming the first violation. The scan is
// allocation-free: a set holds at most Increments*IncrementAssoc ways (32 for
// the paper's geometry), so the pairwise comparison is cheaper than building
// a map per set — the old implementation allocated one map per set per call,
// which dominated the interval-policy hot loop's allocation profile.
func (h *Hierarchy) CheckExclusive() error {
	for s, set := range h.sets {
		for i := range set {
			if !set[i].valid {
				continue
			}
			for j := i + 1; j < len(set); j++ {
				if set[j].valid && set[j].tag == set[i].tag {
					return fmt.Errorf("cache: set %d holds tag %#x in ways %d and %d", s, set[i].tag, i, j)
				}
			}
		}
	}
	return nil
}

// --- Timing ---------------------------------------------------------------

// Timing holds the clock and latency consequences of a boundary position.
type Timing struct {
	// Boundary is the L1 increment count this timing corresponds to.
	Boundary int
	// CycleNS is the processor cycle time: the access time of the slowest
	// enabled L1 increment (bank access + buffered bus over the L1 span)
	// divided by the 3-cycle pipelined L1 latency the paper assumes.
	CycleNS float64
	// L1AccessNS is the full L1 access time.
	L1AccessNS float64
	// L2HitCycles is the additional stall on an L1 miss that hits in L2.
	L2HitCycles int
	// MemCycles is the additional stall beyond the L2 probe for a
	// reference that misses the whole structure (the paper's 30 ns
	// average, converted at this configuration's clock).
	MemCycles int
}

// l1PipeDepth is the paper's fixed 3-cycle L1 latency: the cycle time is the
// L1 access time divided by this pipeline depth.
const l1PipeDepth = 3

// memLatencyNS is the paper's average L2-miss (memory) latency.
const memLatencyNS = 30.0

// l2FixedNS is the non-bus overhead of an L2 probe + exclusive swap
// (miss determination, bank turnaround, swap sequencing).
const l2FixedNS = 2.0

// busLoadPerIncrement is the capacitive load one increment places on the
// global bus, in units of the process's repeater input capacitance (the
// increment's local address decoder and data drivers are two-way banked,
// doubling the hang-off relative to a monolithic bank).
const busLoadPerIncrement = 18.0

// timingKey keys the TimingFor memo; Params is a flat scalar struct, so
// (Params, k) describes the computation completely.
type timingKey struct {
	p Params
	k int
}

// timings memoizes TimingFor per (Params, boundary). Every profiling pass
// (core.ProfileCacheTPI, core.ProfileCombined) evaluates the whole boundary
// table, and a parallel sweep runs one pass per application; the memo
// collapses that to one cacti+wire evaluation per distinct geometry. Validation (which
// panics) runs before entering the memo.
var timings memo.Memo[timingKey, Timing]

// TimingFor computes the Timing of boundary position k under params p.
// The global bus is buffered whenever buffering is faster (the paper applies
// the same rule to its conventional baselines), and the delay-hierarchy
// property of repeaters means the L1 sees only the bus segments it spans.
// Results are memoized: the model is pure in (Params, k).
func TimingFor(p Params, k int) Timing {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return timings.Get(timingKey{p, k}, func() Timing { return timingFor(p, k) })
}

func timingFor(p Params, k int) Timing {
	tp := tech.ForFeature(p.Feature)
	inc := cacti.Config{SizeBytes: p.IncrementBytes, BlockBytes: p.BlockBytes, Assoc: p.IncrementAssoc}
	bank := cacti.AccessTime(inc, tp).Total()
	_, hinc := cacti.Dimensions(inc, tp)

	busOver := func(n int) float64 {
		l := wire.Line{LengthMM: float64(n) * hinc, LoadC: float64(n) * busLoadPerIncrement * tp.BufferC}
		d, _ := wire.BestDelay(l, tp)
		return d
	}

	l1Access := bank + busOver(k)
	cycle := l1Access / l1PipeDepth
	// L2 probe: address out over the full structure, local bank access in
	// the hit increment, data back over the full structure, plus fixed
	// sequencing overhead. Blocking cache: no pipelining of the two bus
	// crossings.
	l2Access := bank + 2*busOver(p.Increments) + l2FixedNS
	l2Cycles := ceilDiv(l2Access, cycle)
	memCycles := ceilDiv(memLatencyNS, cycle)
	return Timing{
		Boundary:    k,
		CycleNS:     cycle,
		L1AccessNS:  l1Access,
		L2HitCycles: l2Cycles,
		MemCycles:   memCycles,
	}
}

func ceilDiv(x, y float64) int {
	n := int(x / y)
	if float64(n)*y < x-1e-12 {
		n++
	}
	return n
}

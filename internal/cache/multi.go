package cache

import "fmt"

// DecodedSource yields pre-decoded references: the set index and tag under
// the hierarchy's geometry plus the write flag. internal/trace's
// DecodedCursor implements it; tests feed synthetic streams.
type DecodedSource interface {
	NextDecoded() (set int32, tag uint64, write bool)
}

// Way-state flag bits for MultiHierarchy's packed SoA arrays.
const (
	mhValid uint8 = 1 << iota
	mhDirty
)

// Reference outcome classes (AccessClasses): the complete per-boundary
// result of one access, packed into two bits. The class refines Level with
// the side effects the service path implies — an L2 hit always performs an
// exclusive swap, and a structure miss either finds a clean (or invalid) L2
// victim or writes a dirty one back — so a recorded class stream replays a
// boundary's statistics and latencies exactly (internal/classify).
const (
	ClassL1Hit    uint8 = iota // serviced by L1, no structural side effects
	ClassL2Swap                // L2 hit: exclusive swap with the L1 LRU victim
	ClassMissLoad              // structure miss, L2 victim clean or invalid
	ClassMissWB                // structure miss with a dirty-victim writeback
)

// ClassLevel maps a reference class back to its service level.
func ClassLevel(c uint8) Level {
	switch c {
	case ClassL1Hit:
		return L1Hit
	case ClassL2Swap:
		return L2Hit
	default:
		return Miss
	}
}

// MultiHierarchy evaluates EVERY boundary position k = 1..maxBoundary of one
// adaptive hierarchy in a single pass over the reference stream — the
// Mattson-style one-pass engine behind the process-level profiling pass.
//
// Where the per-boundary oracle builds maxBoundary independent Hierarchy
// instances and replays (and decodes, and for the old code even
// re-generates) the identical stream once per boundary, MultiHierarchy
// decodes each reference exactly once — legal because the paper's
// constant-index mapping rule gives every boundary the same (set, tag)
// decomposition — and updates all boundary positions in lockstep.
//
// Lockstep (rather than a single shared stack simulation) is required for
// bit-identical results: the structure is NOT a pure LRU stack. On an
// exclusive swap the demoted block is re-stamped MRU within L2, and on a
// structure miss the eviction victim is the LRU of the *L2 way range*, both
// of which depend on where the boundary sits — so resident contents diverge
// across boundaries and a shared Mattson stack would mispredict evictions.
// What the recency ordering DOES prove (see the fast path below) is that
// after any access the referenced block is the L1 MRU at every boundary,
// because every access path — L1 hit, exclusive swap, miss fill — leaves the
// block in L1 with the globally newest stamp. A repeat reference to the same
// (set, tag), i.e. stack distance zero within the set, is therefore an L1
// hit at a known way for all boundaries simultaneously and needs no probe.
// With 32 B blocks and word-granularity references, spatial runs make this
// the common case.
//
// Per-boundary way state lives in flat structure-of-arrays slices
// (tags/stamps/flags), laid out [set][boundary][way] so one access touches
// one contiguous span, with no [][]way pointer chasing.
//
// Replay is bit-identical to maxBoundary independent Hierarchy runs: each
// boundary's update replicates Hierarchy.Access exactly (same probe order,
// same LRU tie-breaks, same stamp sequence — every independent Hierarchy
// sees every reference, so one shared stamp counter matches them all), which
// TestMultiHierarchyDifferential verifies per interval.
type MultiHierarchy struct {
	p    Params
	ix   indexer
	maxB int
	ways int // total ways per set (constant across boundaries)

	// Flat SoA way state, indexed ((set*maxB + (k-1))*ways + way).
	tags   []uint64
	stamps []uint64
	flags  []uint8

	stamp uint64
	stats []Stats // dense, indexed by boundary k; slot 0 unused

	// refs/writes count once for all boundaries: every boundary position
	// sees every reference, so Stats.Refs and Stats.Writes are identical
	// across the family and need not be maintained per boundary.
	refs   uint64
	writes uint64

	// Stack-distance-zero fast path state: per set, the tag of the last
	// reference to that set and, per boundary, the L1 way it occupies.
	lastTag   []uint64
	lastValid []bool
	lastWay   []int32 // indexed (set*maxB + k-1)

	// Lazy fast-path effects. A fast-path hit must re-stamp the block MRU
	// (and possibly dirty it) at every boundary — but those stamps and dirty
	// bits are only ever READ by a later slow access to the same set (LRU
	// victim selection and writeback accounting; Contains and CheckExclusive
	// inspect tags and validity only). So the fast path merely records the
	// newest stamp and the dirty OR per set, and accessSlow applies them on
	// entry, making the common case O(1) instead of O(maxBoundary).
	// pendStamp[set] == 0 means nothing pending (stamps start at 1).
	pendStamp []uint64
	pendDirty []bool

	// Telemetry tally (obs.go). A plain unconditional increment — cheap,
	// deterministic, and published only as deltas by PublishObs.
	fastHits uint64
	pub      [2]uint64 // refs/fast at the last publish
}

// NewMulti creates a one-pass evaluator for boundaries 1..maxBoundary.
func NewMulti(p Params, maxBoundary int) (*MultiHierarchy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	min, max := p.Boundaries()
	if maxBoundary < min || maxBoundary > max {
		return nil, fmt.Errorf("cache: max boundary %d outside [%d,%d]", maxBoundary, min, max)
	}
	sets, ways := p.Sets(), p.TotalWays()
	n := sets * maxBoundary * ways
	return &MultiHierarchy{
		p:         p,
		ix:        newIndexer(p),
		maxB:      maxBoundary,
		ways:      ways,
		tags:      make([]uint64, n),
		stamps:    make([]uint64, n),
		flags:     make([]uint8, n),
		stats:     make([]Stats, maxBoundary+1),
		lastTag:   make([]uint64, sets),
		lastValid: make([]bool, sets),
		lastWay:   make([]int32, sets*maxBoundary),
		pendStamp: make([]uint64, sets),
		pendDirty: make([]bool, sets),
	}, nil
}

// Params returns the physical parameters.
func (m *MultiHierarchy) Params() Params { return m.p }

// MaxBoundary returns the largest boundary evaluated.
func (m *MultiHierarchy) MaxBoundary() int { return m.maxB }

// Stats returns a dense copy of the per-boundary statistics, indexed by
// boundary k (slot 0 is unused and zero). Refs and Writes are filled from the
// shared counters (they are identical at every boundary).
func (m *MultiHierarchy) Stats() []Stats {
	out := make([]Stats, len(m.stats))
	copy(out, m.stats)
	for k := 1; k <= m.maxB; k++ {
		out[k].Refs, out[k].Writes = m.refs, m.writes
	}
	return out
}

// Replay plays n pre-decoded references through every boundary position.
func (m *MultiHierarchy) Replay(src DecodedSource, n int64) {
	for i := int64(0); i < n; i++ {
		set, tag, write := src.NextDecoded()
		m.Access(int(set), tag, write)
	}
}

// Access applies one pre-decoded reference to every boundary position.
func (m *MultiHierarchy) Access(set int, tag uint64, write bool) {
	m.stamp++
	m.refs++
	if write {
		m.writes++
	}

	if m.lastValid[set] && m.lastTag[set] == tag {
		// Stack distance zero within the set: the previous access to this
		// set left this very block as the L1 MRU at every boundary (L1
		// hits refresh it in place, swaps promote it, misses fill it), and
		// only accesses to this set can move it. Guaranteed L1 hit
		// everywhere at the recorded ways — skip all probes and defer the
		// MRU re-stamp and dirty marking until the next slow access to this
		// set can observe them.
		m.pendStamp[set] = m.stamp
		if write {
			m.pendDirty[set] = true
		}
		m.fastHits++
		return
	}

	m.accessSlow(set, tag, write, nil)
}

// AccessClasses is Access that records each boundary's full reference
// outcome class (ClassL1Hit/ClassL2Swap/ClassMissLoad/ClassMissWB) into
// classes[k-1] — the producer side of the classification-stream tier
// (internal/classify). classes must have at least MaxBoundary elements. The
// stack-distance-zero fast path is a ClassL1Hit at every boundary by the MRU
// argument above.
func (m *MultiHierarchy) AccessClasses(set int, tag uint64, write bool, classes []uint8) {
	m.stamp++
	m.refs++
	if write {
		m.writes++
	}

	if m.lastValid[set] && m.lastTag[set] == tag {
		m.pendStamp[set] = m.stamp
		if write {
			m.pendDirty[set] = true
		}
		m.fastHits++
		for kb := 0; kb < m.maxB; kb++ {
			classes[kb] = ClassL1Hit
		}
		return
	}

	m.accessSlow(set, tag, write, classes)
}

// accessSlow is the lockstep replay path: one exact Hierarchy.Access
// replication per boundary position. When classes is non-nil it receives
// the per-boundary outcome class (AccessClasses).
func (m *MultiHierarchy) accessSlow(set int, tag uint64, write bool, classes []uint8) {
	if ps := m.pendStamp[set]; ps != 0 {
		// Apply the deferred fast-path effects: the last repeat reference
		// left the resident block with this stamp (and dirty OR) at its
		// recorded L1 way at every boundary.
		lw := m.lastWay[set*m.maxB : set*m.maxB+m.maxB]
		dirty := m.pendDirty[set]
		for kb := 0; kb < m.maxB; kb++ {
			w := (set*m.maxB+kb)*m.ways + int(lw[kb])
			m.stamps[w] = ps
			if dirty {
				m.flags[w] |= mhDirty
			}
		}
		m.pendStamp[set], m.pendDirty[set] = 0, false
	}
	assoc := m.p.IncrementAssoc
	for kb := 0; kb < m.maxB; kb++ {
		base := (set*m.maxB + kb) * m.ways
		tags := m.tags[base : base+m.ways]
		stamps := m.stamps[base : base+m.ways]
		flags := m.flags[base : base+m.ways]
		st := &m.stats[kb+1]
		l1w := (kb + 1) * assoc

		// Probe: identical scan order to Hierarchy.Access (exclusivity
		// guarantees at most one hit).
		hit := -1
		for i := 0; i < m.ways; i++ {
			if flags[i]&mhValid != 0 && tags[i] == tag {
				hit = i
				break
			}
		}

		var final int
		cls := ClassMissLoad
		switch {
		case hit >= 0 && hit < l1w: // L1 hit
			cls = ClassL1Hit
			stamps[hit] = m.stamp
			if write {
				flags[hit] |= mhDirty
			}
			final = hit

		case hit >= 0: // L2 hit: exclusive swap with the L1 victim
			cls = ClassL2Swap
			st.L1Misses++
			st.Swaps++
			victim := mhLRU(tags, stamps, flags, 0, l1w)
			tags[victim], tags[hit] = tags[hit], tags[victim]
			stamps[victim], stamps[hit] = stamps[hit], stamps[victim]
			flags[victim], flags[hit] = flags[hit], flags[victim]
			stamps[victim] = m.stamp
			if write {
				flags[victim] |= mhDirty
			}
			stamps[hit] = m.stamp // demoted block is MRU within L2
			final = victim

		default: // structure miss: fill from memory into L1
			st.L1Misses++
			st.L2Misses++
			victim := mhLRU(tags, stamps, flags, 0, l1w)
			if flags[victim]&mhValid != 0 {
				// Demote the L1 victim into L2, evicting L2's LRU.
				l2victim := mhLRU(tags, stamps, flags, l1w, m.ways)
				if flags[l2victim]&mhValid != 0 && flags[l2victim]&mhDirty != 0 {
					st.Writebacks++
					cls = ClassMissWB
				}
				tags[l2victim] = tags[victim]
				stamps[l2victim] = stamps[victim]
				flags[l2victim] = flags[victim]
			}
			tags[victim] = tag
			stamps[victim] = m.stamp
			flags[victim] = mhValid
			if write {
				flags[victim] |= mhDirty
			}
			final = victim
		}
		if classes != nil {
			classes[kb] = cls
		}
		m.lastWay[set*m.maxB+kb] = int32(final)
	}
	m.lastTag[set] = tag
	m.lastValid[set] = true
}

// mhLRU mirrors Hierarchy.lruWay on the SoA arrays: the least-recently-used
// way in [lo, hi), preferring the first invalid frame, with the identical
// first-strictly-smaller tie-break.
func mhLRU(tags []uint64, stamps []uint64, flags []uint8, lo, hi int) int {
	if hi <= lo {
		panic("cache: empty way range")
	}
	best := lo
	for i := lo; i < hi; i++ {
		if flags[i]&mhValid == 0 {
			return i
		}
		if stamps[i] < stamps[best] {
			best = i
		}
	}
	return best
}

// Contains reports whether the block holding addr is resident at boundary k
// and at which level (invariant tests).
func (m *MultiHierarchy) Contains(k int, addr uint64) (Level, bool) {
	set, tag := m.ix.index(addr)
	base := (set*m.maxB + (k - 1)) * m.ways
	l1w := k * m.p.IncrementAssoc
	for i := 0; i < m.ways; i++ {
		if m.flags[base+i]&mhValid != 0 && m.tags[base+i] == tag {
			if i < l1w {
				return L1Hit, true
			}
			return L2Hit, true
		}
	}
	return Miss, false
}

// CheckExclusive verifies the exclusivity invariant for every boundary
// position: no tag appears twice within one (boundary, set) way span.
func (m *MultiHierarchy) CheckExclusive() error {
	sets := m.p.Sets()
	for set := 0; set < sets; set++ {
		for kb := 0; kb < m.maxB; kb++ {
			base := (set*m.maxB + kb) * m.ways
			for i := 0; i < m.ways; i++ {
				if m.flags[base+i]&mhValid == 0 {
					continue
				}
				for j := i + 1; j < m.ways; j++ {
					if m.flags[base+j]&mhValid != 0 && m.tags[base+j] == m.tags[base+i] {
						return fmt.Errorf("cache: boundary %d set %d holds tag %#x in ways %d and %d",
							kb+1, set, m.tags[base+i], i, j)
					}
				}
			}
		}
	}
	return nil
}

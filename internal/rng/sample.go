package rng

import (
	"fmt"
	"math"
)

// Integer-domain sampling. Float64 is k·2⁻⁵³ with k = Uint64()>>11, and the
// float sampling walks the workload generators are defined by (a weighted
// pick, a Bernoulli trial, a geometric count of failed trials) all depend on
// a draw only through k. Each sampler below precomputes, once, the integer
// boundaries on k at which the float walk's answer changes, so a draw is a
// shift and a few integer compares yet returns, draw for draw, exactly what
// the float walk returns.

// unitScale is 2⁵³, the number of distinct k values behind one Float64.
const unitScale = 1 << 53

// Table picks an index with probability proportional to a weight vector.
// Its definition is the float walk
//
//	x := Float64() * total  // total: the sum of the positive weights
//	for i, w := range weights {
//		if w <= 0 { continue }
//		if x < w { return i }
//		x -= w
//	}
//	return len(weights) - 1
//
// That walk is a monotone step function of k: fl(k·2⁻⁵³·total) is monotone
// in k, each fl(x−w) is monotone in x, so raising k can only make every
// "x < w" test fail earlier in the walk, never later. A monotone step
// function is fully described by its cut points — cuts[i] is the smallest k
// whose walk returns an index greater than i (2⁵³ when none does) — and a
// draw returns the first i with k < cuts[i], or the last index when k is at
// or above every cut (the last index needs no cut of its own). NewTable
// finds each cut by binary search over [0, 2⁵³] with the float walk itself
// as the oracle, so rounding at the boundaries, zero weights and the walk's
// fall-through to the last index are all reproduced exactly.
type Table struct {
	cuts []uint64
}

// NewTable builds the table for weights. Non-positive weights are never
// picked (except through the walk's fall-through to the last index). It
// panics if weights is empty, if no weight is positive, or if a weight or
// the total is NaN or infinite (the monotonicity argument needs finite
// arithmetic).
func NewTable(weights []float64) *Table {
	var total float64
	for _, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			panic(fmt.Sprintf("rng: table weight %v is not finite", w))
		}
		if w > 0 {
			total += w
		}
	}
	if len(weights) == 0 || total <= 0 {
		panic("rng: a table requires at least one positive weight")
	}
	if math.IsInf(total, 0) {
		panic("rng: table weights overflow")
	}
	cuts := make([]uint64, len(weights)-1)
	lo := uint64(0)
	for i := range cuts {
		// The walk is monotone, so cuts[i] >= cuts[i-1]: search [lo, 2⁵³]
		// for the first k whose walk passes index i.
		hi := uint64(unitScale)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if walk(weights, total, mid) > i {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		cuts[i] = lo
	}
	return &Table{cuts: cuts}
}

// walk is the float walk that defines Table, evaluated at k.
func walk(weights []float64, total float64, k uint64) int {
	x := float64(k) / unitScale * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// index returns the table's answer for the draw k = v>>11 of the output v:
// the first i with k < cuts[i], else the last index. The cuts are
// non-decreasing, so that is the number of cuts at or below k, which the
// loop counts without a branch: c−k−1 wraps to a value with its top bit set
// exactly when c <= k (both are at most 2⁵³).
func (t *Table) index(v uint64) (n int) {
	v >>= 11 // the draw k
	for _, c := range t.cuts {
		n += int((c - v - 1) >> 63)
	}
	return n
}

// Pick draws an index from t and returns the advanced state.
func (x State) Pick(t *Table) (int, State) {
	return t.index(out(x.s1)), x.next()
}

// Chance is a Bernoulli trial with success probability p, defined as
// Bool(p): no draw at all when p <= 0 (never) or p >= 1 (always), and
// otherwise Float64() < p. For 0 < p < 1 that comparison holds exactly when
// k < p·2⁵³; scaling by a power of two is exact, and k is an integer, so it
// holds exactly when k < ⌈p·2⁵³⌉, the precomputed threshold.
type Chance struct {
	t    uint64 // success iff k < t
	draw bool   // false: the outcome is fixed (t != 0) and no draw is made
}

// NewChance precomputes Bool(p).
func NewChance(p float64) Chance {
	switch {
	case p <= 0:
		return Chance{}
	case p >= 1:
		return Chance{t: unitScale}
	case math.IsNaN(p):
		return Chance{draw: true} // Float64() < NaN never holds
	}
	return Chance{t: uint64(math.Ceil(p * unitScale)), draw: true}
}

// Chance runs the trial c, drawing exactly when Bool would, and returns
// the advanced state.
func (x State) Chance(c Chance) (bool, State) {
	if !c.draw {
		return c.t != 0, x
	}
	return out(x.s1)>>11 < c.t, x.next()
}

// Geom samples the number of failed trials before the first success of a
// Chance (support {0, 1, 2, ...}, mean (1-p)/p). Its definition clamps p to
// [1e-9, 1] — p >= 1 yields 0 without a draw — and stops after 2²⁰+1
// failures as a guard against pathological p.
type Geom Chance

// NewGeom precomputes the geometric sampler for success probability p.
func NewGeom(p float64) Geom {
	if p >= 1 {
		return Geom(NewChance(1))
	}
	if p < 1e-9 {
		p = 1e-9
	}
	return Geom(NewChance(p))
}

// Geom draws from g and returns the advanced state. The trial loop runs on
// the state words in locals, one xoshiro step and one compare per trial. It
// compares the whole 64-bit output with the threshold shifted up by 11, which
// is the same test as k < t: a drawing trial has t < 2⁵³, so the shift
// cannot overflow.
func (x State) Geom(g Geom) (int, State) {
	if !g.draw {
		return 0, x
	}
	s0, s1, s2, s3 := x.s0, x.s1, x.s2, x.s3
	t := g.t << 11
	n := 0
	for {
		v := out(s1)
		s0, s1, s2, s3 = step(s0, s1, s2, s3)
		if v < t {
			break
		}
		n++
		if n > 1<<20 {
			break
		}
	}
	return n, State{s0, s1, s2, s3}
}

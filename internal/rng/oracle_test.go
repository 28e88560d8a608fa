package rng

import (
	"math"
	"testing"
)

// The float sampling walks below are the definitions Table, Chance and Geom
// reproduce. They are the generators' original samplers, kept here as the
// differential oracle: every integer-domain sampler must agree with them
// draw for draw, including how many draws it consumes.

// weightedAt is the weighted pick for the draw k (Float64() = k·2⁻⁵³).
// Non-positive weights are treated as zero. It panics if the weights sum to
// zero or the slice is empty.
func weightedAt(weights []float64, k uint64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if len(weights) == 0 || total <= 0 {
		panic("rng: Weighted requires at least one positive weight")
	}
	x := float64(k) / (1 << 53) * total
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

// Weighted selects an index in [0, len(weights)) with probability
// proportional to the weights.
func (r *Source) Weighted(weights []float64) int {
	return weightedAt(weights, r.Uint64()>>11)
}

// Geometric returns the number of failed Bool(p) trials before the first
// success, with p clamped to (0, 1] and a 2²⁰ safety cap.
func (r *Source) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p < 1e-9 {
		p = 1e-9
	}
	n := 0
	for !r.Bool(p) {
		n++
		if n > 1<<20 { // safety against pathological p
			break
		}
	}
	return n
}

// TestTableMatchesWeighted runs Pick and the float walk in lockstep on two
// identically seeded sources: every index and every draw must agree.
func TestTableMatchesWeighted(t *testing.T) {
	cases := [][]float64{
		{1},
		{1, 2, 0},
		{0, 0, 5},
		{3, 0},
		{-1, 1, -1, 2},
		{0.1, 0.2, 0.3, 0.4},
		{1e12, 1},
		{1, 1e12, 1e-12},
		{0.45, 0.35, 0.2},
	}
	for _, ws := range cases {
		tab := NewTable(ws)
		a, b := New(77), New(77)
		for i := 0; i < 200000; i++ {
			if got, want := a.Pick(tab), b.Weighted(ws); got != want {
				t.Fatalf("%v draw %d: Pick %d, Weighted %d", ws, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("%v: sources out of step", ws)
		}
	}
}

func TestNewTablePanics(t *testing.T) {
	for _, ws := range [][]float64{nil, {}, {0, 0}, {-1, -2}, {1, math.NaN()}, {math.Inf(1)}, {math.MaxFloat64, math.MaxFloat64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(%v) did not panic", ws)
				}
			}()
			NewTable(ws)
		}()
	}
}

// TestChanceMatchesBool checks the Bernoulli threshold, including the
// no-draw cases p <= 0 and p >= 1, against Bool in lockstep.
func TestChanceMatchesBool(t *testing.T) {
	for _, p := range []float64{-1, 0, 1e-300, 1e-12, 1e-9, 0.3, 0.5, 1 - 1.0/(1<<53), 1, 2, math.NaN()} {
		c := NewChance(p)
		a, b := New(5), New(5)
		for i := 0; i < 100000; i++ {
			if got, want := a.Chance(c), b.Bool(p); got != want {
				t.Fatalf("p=%v draw %d: Chance %v, Bool %v", p, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("p=%v: sources out of step", p)
		}
	}
}

// TestGeomMatchesGeometric checks the locals-held geometric loop, its clamps
// and its safety cap against the Bool-driven reference.
func TestGeomMatchesGeometric(t *testing.T) {
	for _, p := range []float64{-1, 0, 1e-12, 1e-9, 1e-4, 0.01, 1.0 / 7, 0.5, 0.9, 1 - 1.0/(1<<53), 1, 3} {
		g := NewGeom(p)
		a, b := New(9), New(9)
		n := 2000
		if p < 1e-3 {
			n = 4 // each sample runs about 1/p trials, up to the 2²⁰ cap
		}
		for i := 0; i < n; i++ {
			if got, want := a.Geom(g), b.Geometric(p); got != want {
				t.Fatalf("p=%v draw %d: Geom %d, Geometric %d", p, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("p=%v: sources out of step", p)
		}
	}
}

// fuzzWeights decodes a weight vector from data, three bytes a component:
// a class byte (zero, negative, tiny or scaled) and two value bytes, so the
// corpus reaches zeros, 1e-12 weights and 1e12:1 ratios.
func fuzzWeights(data []byte) []float64 {
	var ws []float64
	for len(data) >= 3 && len(ws) < 16 {
		c, v, e := data[0], float64(data[1]), int(data[2])
		data = data[3:]
		switch c % 4 {
		case 0:
			ws = append(ws, 0)
		case 1:
			ws = append(ws, -(v + 1))
		case 2:
			ws = append(ws, (v+1)*1e-14)
		default:
			ws = append(ws, (1+v/256)*math.Pow(10, float64(e%25-12)))
		}
	}
	return ws
}

// inverse returns a⁻¹ mod 2⁶⁴ for odd a (Newton's iteration doubles the
// correct low bits each step, from 3).
func inverse(a uint64) uint64 {
	x := a
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}

// sourceAt returns a source whose next draw has Uint64()>>11 == k, the rest
// of its state coming from seed: xoshiro256** outputs rotl(s1·5, 7)·9, which
// is invertible in s1. It lets a test hit a sampler's exact boundaries,
// which random draws reach with probability 2⁻⁵³.
func sourceAt(k, seed uint64) *Source {
	r := New(seed)
	out := k<<11 | r.s[1]&(1<<11-1)
	r.s[1] = rotl(out*inverse(9), 64-7) * inverse(5)
	return r
}

// FuzzCutTable drives Pick, Chance and Geom from sources crafted to draw an
// exact k, against the float walks on an identical copy: Pick at and around
// every cut (k = c−1, c, c+1) and at random k, and Chance and Geom at their
// threshold (k = T−1, T) for p drawn from [1e-9, 1). Each comparison also
// requires both sources to be in step afterwards.
func FuzzCutTable(f *testing.F) {
	f.Add([]byte{3, 0, 12}, uint64(1))
	f.Add([]byte{3, 0, 12, 3, 128, 12, 0, 0, 0, 3, 255, 12}, uint64(2))
	f.Add([]byte{3, 0, 24, 3, 0, 0}, uint64(3))                   // 1e12 : 1e-12
	f.Add([]byte{2, 0, 0, 3, 0, 12, 1, 9, 0, 0, 0, 0}, uint64(4)) // tiny, one, negative, zero
	f.Add([]byte{0, 0, 0, 3, 7, 13}, uint64(5))
	many := make([]byte, 48)
	for i := range many {
		many[i] = byte(i*37 + 3)
	}
	f.Add(many, uint64(6))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		r := New(seed)
		inStep := func(what string, k uint64, a, b *Source) {
			if a.s != b.s {
				t.Fatalf("%s k=%d: sources out of step", what, k)
			}
		}
		ws := fuzzWeights(data)
		positive := false
		for _, w := range ws {
			positive = positive || w > 0
		}
		if positive {
			tab := NewTable(ws)
			check := func(k uint64) {
				if k >= unitScale {
					return
				}
				a := sourceAt(k, seed)
				b := *a
				if got, want := a.Pick(tab), b.Weighted(ws); got != want {
					t.Fatalf("weights %v k=%d: Pick %d, walk %d (cuts %v)", ws, k, got, want, tab.cuts)
				}
				inStep("Pick", k, a, &b)
			}
			for _, c := range tab.cuts {
				check(c - 1)
				check(c)
				check(c + 1)
			}
			for i := 0; i < 64; i++ {
				check(r.Uint64() >> 11)
			}
		}

		p := math.Exp(math.Log(1e-9) * r.Float64()) // log-uniform in (1e-9, 1]
		if p >= 1 {
			p = 0.5
		}
		c, g := NewChance(p), NewGeom(p)
		if !c.draw || g != Geom(c) {
			t.Fatalf("p=%v: geometric trial %+v, chance %+v", p, g, c)
		}
		for _, k := range []uint64{c.t - 1, c.t} {
			a := sourceAt(k, seed)
			b := *a
			if got, want := a.Chance(c), b.Bool(p); got != want || got != (k < c.t) {
				t.Fatalf("p=%v k=%d (T=%d): Chance %v, Bool %v", p, k, c.t, got, want)
			}
			inStep("Chance", k, a, &b)
			a = sourceAt(k, seed)
			b = *a
			if got, want := a.Geom(g), b.Geometric(p); got != want || (got == 0) != (k < c.t) {
				t.Fatalf("p=%v k=%d (T=%d): Geom %d, Geometric %d", p, k, c.t, got, want)
			}
			inStep("Geom", k, a, &b)
		}
	})
}

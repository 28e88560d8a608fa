package rng

import (
	"math"
	"math/bits"
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
// identically seeded generators: every index and every draw must agree.
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
		x, b := NewState(77), New(77)
		for i := 0; i < 200000; i++ {
			got, y := x.Pick(tab)
			x = y
			if want := b.Weighted(ws); got != want {
				t.Fatalf("%v draw %d: Pick %d, Weighted %d", ws, i, got, want)
			}
		}
		if x != b.x {
			t.Fatalf("%v: generators out of step", ws)
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
		x, b := NewState(5), New(5)
		for i := 0; i < 100000; i++ {
			got, y := x.Chance(c)
			x = y
			if want := b.Bool(p); got != want {
				t.Fatalf("p=%v draw %d: Chance %v, Bool %v", p, i, got, want)
			}
		}
		if x != b.x {
			t.Fatalf("p=%v: generators out of step", p)
		}
	}
}

// TestGeomMatchesGeometric checks the held-state geometric loop, its clamps
// and its safety cap against the Bool-driven reference.
func TestGeomMatchesGeometric(t *testing.T) {
	for _, p := range []float64{-1, 0, 1e-12, 1e-9, 1e-4, 0.01, 1.0 / 7, 0.5, 0.9, 1 - 1.0/(1<<53), 1, 3} {
		g := NewGeom(p)
		x, b := NewState(9), New(9)
		n := 2000
		if p < 1e-3 {
			n = 4 // each sample runs about 1/p trials, up to the 2²⁰ cap
		}
		for i := 0; i < n; i++ {
			got, y := x.Geom(g)
			x = y
			if want := b.Geometric(p); got != want {
				t.Fatalf("p=%v draw %d: Geom %d, Geometric %d", p, i, got, want)
			}
		}
		if x != b.x {
			t.Fatalf("p=%v: generators out of step", p)
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

// stateAt returns a state whose next draw has Uint64()>>11 == k, the rest
// of it coming from seed: xoshiro256** outputs rotl(s1·5, 7)·9, which is
// invertible in s1. It lets a test hit a sampler's exact boundaries, which
// random draws reach with probability 2⁻⁵³.
func stateAt(k, seed uint64) State {
	x := NewState(seed)
	out := k<<11 | x.s1&(1<<11-1)
	x.s1 = bits.RotateLeft64(out*inverse(9), -7) * inverse(5)
	return x
}

// FuzzCutTable drives the held-state samplers the generators run — Pick,
// Chance and Geom on a State crafted to draw an exact k — against the float
// walks on a Source holding a copy of that state: Pick at both ends of the
// draw range, at and around every cut (k = c−1, c, c+1) and at random k, and Chance and Geom at their
// threshold (k = T−1, T) for p drawn from (1e-9, 1), below 2⁻¹⁰ for about
// one seed in 16. Each comparison also requires the two to be in step
// afterwards.
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
	f.Add([]byte{3, 0, 12}, uint64(16)) // a tiny p
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		r := New(seed)
		inStep := func(what string, k uint64, x State, b *Source) {
			if x != b.x {
				t.Fatalf("%s k=%d: generators out of step", what, k)
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
				b := &Source{stateAt(k, seed)}
				got, x := b.x.Pick(tab)
				if want := b.Weighted(ws); got != want {
					t.Fatalf("weights %v k=%d: Pick %d, walk %d (cuts %v)", ws, k, got, want, tab.cuts)
				}
				inStep("Pick", k, x, b)
			}
			check(0)
			check(unitScale - 1) // above every cut but 2⁵³: the last index
			for _, c := range tab.cuts {
				check(c - 1)
				check(c)
				check(c + 1)
			}
			for i := 0; i < 64; i++ {
				check(r.Uint64() >> 11)
			}
		}

		// p is log-uniform over [2⁻¹⁰, 1], or over (1e-9, 2⁻¹⁰) when the
		// seed's low four bits are zero: a miss at k = T costs Geom and the
		// float reference about 1/p trials each (up to the 2²⁰ cap), so
		// tiny p stays reachable but rare, and most inputs stay cheap.
		lo, hi := math.Log(0x1p-10), 0.0
		if seed&15 == 0 {
			lo, hi = math.Log(1e-9), math.Log(0x1p-10)
		}
		p := math.Exp(lo + (hi-lo)*r.Float64())
		if p >= 1 {
			p = 0.5
		}
		c, g := NewChance(p), NewGeom(p)
		if !c.draw || g != Geom(c) {
			t.Fatalf("p=%v: geometric trial %+v, chance %+v", p, g, c)
		}
		for _, k := range []uint64{c.t - 1, c.t} {
			b := &Source{stateAt(k, seed)}
			hit, x := b.x.Chance(c)
			if want := b.Bool(p); hit != want || hit != (k < c.t) {
				t.Fatalf("p=%v k=%d (T=%d): Chance %v, Bool %v", p, k, c.t, hit, want)
			}
			inStep("Chance", k, x, b)
			b = &Source{stateAt(k, seed)}
			n, x := b.x.Geom(g)
			if want := b.Geometric(p); n != want || (n == 0) != (k < c.t) {
				t.Fatalf("p=%v k=%d (T=%d): Geom %d, Geometric %d", p, k, c.t, n, want)
			}
			inStep("Geom", k, x, b)
		}
	})
}

// Package rng supplies the deterministic pseudo-random number generation
// used by the synthetic workload generators. Everything in the repository
// that is stochastic draws from this package with an explicit seed, so every
// experiment is bit-reproducible across runs and machines.
//
// The core generator is xoshiro256**, seeded via SplitMix64 — small, fast,
// and high-quality; math/rand is avoided so the stream is stable regardless
// of Go version.
//
// The workload generators draw through precomputed integer-domain samplers
// (Table, Chance, Geom; see sample.go) rather than float arithmetic per draw.
package rng

import "fmt"

// SplitMix64 advances the given state and returns the next 64-bit output.
// It is used to expand a single seed into the generator's state vector and
// to derive independent per-purpose seeds.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed deterministically combines a base seed with a label, producing
// an independent stream seed for a named purpose (e.g. one per benchmark).
func DeriveSeed(base uint64, label string) uint64 {
	s := base
	x := SplitMix64(&s)
	for _, b := range []byte(label) {
		x ^= uint64(b)
		x *= 0x100000001b3 // FNV prime
		x = SplitMix64(&x)
	}
	return x
}

// Source is a xoshiro256** generator. The zero value is NOT usable; create
// one with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = SplitMix64(&sm)
	}
	// A state of all zeros is invalid for xoshiro; SplitMix64 cannot
	// produce four consecutive zeros from any seed, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn with non-positive n=%d", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform int in [lo, hi]. It panics if hi < lo.
func (r *Source) Range(lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("rng: Range with hi=%d < lo=%d", hi, lo))
	}
	return lo + r.Intn(hi-lo+1)
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

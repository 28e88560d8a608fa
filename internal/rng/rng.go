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
// (Table, Chance, Geom; see sample.go) rather than float arithmetic per draw,
// on a State they hold by value, so a batch of draws runs in registers.
package rng

import (
	"fmt"
	"math/bits"
)

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

// State is a xoshiro256** state by value: four scalar words, so a caller
// can hold it in locals (registers) across a batch of draws and store it
// back once. Every draw method takes the state by value and returns the
// advanced state alongside its result; the workload generators draw through
// State alone. The zero value is NOT usable; take one from NewState.
type State struct {
	s0, s1, s2, s3 uint64
}

// NewState returns the generator state seeded from the given seed.
func NewState(seed uint64) State {
	var s [4]uint64
	sm := seed
	for i := range s {
		s[i] = SplitMix64(&sm)
	}
	// A state of all zeros is invalid for xoshiro; SplitMix64 cannot
	// produce four consecutive zeros from any seed, but guard anyway.
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9e3779b97f4a7c15
	}
	return State{s[0], s[1], s[2], s[3]}
}

// Uint64 returns the next 64 random bits and the advanced state.
func (x State) Uint64() (uint64, State) {
	return out(x.s1), x.next()
}

// Intn returns a uniform int in [0, n) and the advanced state. It panics if
// n <= 0.
func (x State) Intn(n int) (int, State) {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn with non-positive n=%d", n))
	}
	v, x := x.Uint64()
	return int(v % uint64(n)), x
}

// out is the output Uint64 returns for a state whose second word is s1,
// taken without stepping it. The integer-domain samplers read the draw
// k = out>>11 (the Float64 of the same step is k·2⁻⁵³).
func out(s1 uint64) uint64 { return bits.RotateLeft64(s1*5, 7) * 9 }

// step is one xoshiro256** step on the four state words. A loop that draws
// many times (Geom's trials) carries the words in locals through it.
func step(s0, s1, s2, s3 uint64) (uint64, uint64, uint64, uint64) {
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return s0, s1, s2, bits.RotateLeft64(s3, 45)
}

// next is step on a State, written as one expression per word (s2^s0 and
// s3^s1 shared) so that each single-draw sampler built on it stays within
// the inliner's budget. TestNextIsStep holds the two forms equal.
func (x State) next() State {
	return State{
		x.s0 ^ (x.s3 ^ x.s1),
		x.s1 ^ (x.s2 ^ x.s0),
		(x.s2 ^ x.s0) ^ x.s1<<17,
		bits.RotateLeft64(x.s3^x.s1, 45),
	}
}

// Source is a xoshiro256** generator behind a pointer, for callers that draw
// one value at a time. Its methods are thin wrappers over State's. The zero
// value is NOT usable; create one with New.
type Source struct {
	x State
}

// New returns a Source seeded from the given seed; its state is
// NewState(seed).
func New(seed uint64) *Source { return &Source{NewState(seed)} }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	v, x := r.x.Uint64()
	r.x = x
	return v
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	v, x := r.x.Intn(n)
	r.x = x
	return v
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

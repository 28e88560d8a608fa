package workload

import (
	"capsim/internal/rng"
)

// Ref is a single data reference.
type Ref struct {
	Addr  uint64
	Write bool
}

// RefSource is anything that yields an infinite stream of data references.
// *AddressTrace (the generator) and internal/trace's replay cursors both
// implement it, so simulators can run indistinguishably from a live generator
// or from a shared materialized trace store.
type RefSource interface {
	Next() Ref
}

// AddressTrace generates the synthetic data-reference stream of a benchmark.
// It is an infinite deterministic stream; callers draw as many references as
// their budget allows (the paper uses the first 100 M references of each
// application; this reproduction defaults to 1 M, which is past the point
// where the profiles' miss-rate curves are stationary).
type AddressTrace struct {
	prof    MemProfile
	src     rng.Source
	regions *rng.Table // region pick per visit
	write   rng.Chance // per reference: is it a store
	bases   []uint64   // region base addresses, spaced apart

	// current spatial run state
	region  int
	runLeft int
	cursor  uint64 // next address within the run

	// streaming state per region
	streamPos []uint64
}

// wordBytes is the reference granularity (a 4-byte word, matching the
// 32-bit-era benchmarks).
const wordBytes = 4

// NewAddressTrace creates the trace generator for benchmark b with the given
// seed. It panics if b has no memory profile (go) or the profile is invalid.
func NewAddressTrace(b Benchmark, seed uint64) *AddressTrace {
	if b.Mem == nil {
		panic("workload: " + b.Name + " has no memory profile")
	}
	if err := b.Mem.Validate(); err != nil {
		panic(err)
	}
	t := &AddressTrace{
		prof:      *b.Mem,
		src:       *rng.New(rng.DeriveSeed(seed, b.Name+"/mem")),
		write:     rng.NewChance(b.Mem.WriteFrac),
		bases:     make([]uint64, len(b.Mem.Regions)),
		streamPos: make([]uint64, len(b.Mem.Regions)),
	}
	weights := make([]float64, len(b.Mem.Regions))
	// Lay regions out in a sparse address space so they never alias.
	var base uint64 = 1 << 20
	for i, r := range b.Mem.Regions {
		// Region weights are *reference* shares, but the generator picks
		// regions per *visit* and a random-region visit issues Run
		// references; divide so the realized reference mix matches.
		refsPerVisit := 1.0
		if r.Kind == RandomRegion {
			refsPerVisit = float64(r.Run)
		}
		weights[i] = r.Weight / refsPerVisit
		t.bases[i] = base
		// Round the footprint up and leave a guard gap.
		base += uint64(r.Bytes) + 1<<20
		base = (base + (1 << 16) - 1) &^ ((1 << 16) - 1)
	}
	t.regions = rng.NewTable(weights)
	return t
}

// Next returns the next reference in the stream.
func (t *AddressTrace) Next() Ref {
	if t.runLeft == 0 {
		t.startRun()
	}
	addr := t.cursor
	t.cursor += wordBytes
	t.runLeft--
	// Keep runs inside their region.
	r := t.prof.Regions[t.region]
	if t.cursor >= t.bases[t.region]+uint64(r.Bytes) {
		t.runLeft = 0
	}
	return Ref{Addr: addr, Write: t.src.Chance(t.write)}
}

// Fill writes n references into out and returns the slice. It reuses out's
// backing array whenever cap(out) >= n and allocates only otherwise, so a
// caller that drains the trace in fixed-size batches should pass the returned
// slice back in:
//
//	var buf []Ref
//	for ... {
//		buf = tr.Fill(buf, batch) // allocates on the first call only
//	}
//
// Passing nil every call defeats the reuse and pays one allocation per batch
// (BenchmarkAddressTraceGen tracks the difference).
func (t *AddressTrace) Fill(out []Ref, n int) []Ref {
	if cap(out) < n {
		out = make([]Ref, n)
	}
	out = out[:n]
	for i := range out {
		out[i] = t.Next()
	}
	return out
}

// startRun picks the next region and positions the cursor.
func (t *AddressTrace) startRun() {
	i := t.src.Pick(t.regions)
	t.region = i
	r := t.prof.Regions[i]
	switch r.Kind {
	case StreamRegion, LoopRegion:
		// Advance the stream by its stride; one reference per visit
		// keeps the stream's share of references equal to its weight.
		pos := t.streamPos[i]
		t.cursor = t.bases[i] + pos
		t.runLeft = 1
		pos += uint64(r.StrideBytes)
		if pos >= uint64(r.Bytes) {
			pos = 0
		}
		t.streamPos[i] = pos
	default: // RandomRegion
		words := r.Bytes / wordBytes
		if words < 1 {
			words = 1
		}
		start := uint64(t.src.Intn(int(words))) * wordBytes
		t.cursor = t.bases[i] + start
		t.runLeft = r.Run
	}
}

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
	x       rng.State
	regions *rng.Table  // region pick per visit
	write   rng.Chance  // per reference: is it a store
	regs    []memRegion // the profile's regions, laid out in the address space

	// current spatial run state
	runLeft int
	cursor  uint64 // next address within the run
	end     uint64 // end of the run's region: the run stops there
}

// memRegion is one of the profile's Regions as the generator walks it.
type memRegion struct {
	base, bytes uint64 // placement: [base, base+bytes)
	stride      uint64 // per-visit advance of a streaming region; 0 for a random one
	pos         uint64 // streaming position within the region
	words       int    // random region: the number of words a run may start at
	run         int    // random region: references per run
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
		x:     rng.NewState(rng.DeriveSeed(seed, b.Name+"/mem")),
		write: rng.NewChance(b.Mem.WriteFrac),
		regs:  make([]memRegion, len(b.Mem.Regions)),
	}
	weights := make([]float64, len(b.Mem.Regions))
	// Lay regions out in a sparse address space so they never alias.
	var base uint64 = 1 << 20
	for i, r := range b.Mem.Regions {
		// Region weights are *reference* shares, but the generator picks
		// regions per *visit* and a random-region visit issues Run
		// references; divide so the realized reference mix matches.
		refsPerVisit := 1.0
		g := memRegion{base: base, bytes: uint64(r.Bytes)}
		if r.Kind == RandomRegion {
			refsPerVisit = float64(r.Run)
			g.words = int(max(r.Bytes/wordBytes, 1))
			g.run = r.Run
		} else {
			g.stride = uint64(r.StrideBytes) // positive: Validate checked it
		}
		weights[i] = r.Weight / refsPerVisit
		t.regs[i] = g
		// Round the footprint up and leave a guard gap.
		base += uint64(r.Bytes) + 1<<20
		base = (base + (1 << 16) - 1) &^ ((1 << 16) - 1)
	}
	t.regions = rng.NewTable(weights)
	return t
}

// Next returns the next reference in the stream: a batch of one.
func (t *AddressTrace) Next() Ref {
	var r [1]Ref
	t.fill(r[:])
	return r[0]
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
	t.fill(out)
	return out
}

// fill is the batch step behind Next and Fill, and the generator's one
// per-reference body. The xoshiro state and the run state (cursor, length
// left, region end) are loaded into locals once and stored back once.
//
// A run starts with a region pick. A streaming region (StreamRegion,
// LoopRegion) yields one reference per visit, at its position, which then
// advances by the stride and wraps to the region start; keeping each visit
// to one reference keeps the stream's share of references equal to its
// weight. A random region yields a run of Run consecutive words from a
// uniformly drawn word. A run also ends at its region's end.
func (t *AddressTrace) fill(out []Ref) {
	x, left, cursor, end := t.x, t.runLeft, t.cursor, t.end
	for i := range out {
		if left == 0 {
			var r int
			r, x = x.Pick(t.regions)
			g := &t.regs[r]
			end = g.base + g.bytes
			if g.stride != 0 {
				cursor = g.base + g.pos
				left = 1
				g.pos += g.stride
				if g.pos >= g.bytes {
					g.pos = 0
				}
			} else {
				var w int
				w, x = x.Intn(g.words)
				cursor = g.base + uint64(w)*wordBytes
				left = g.run
			}
		}
		addr := cursor
		cursor += wordBytes
		left--
		if cursor >= end {
			left = 0
		}
		var w bool
		w, x = x.Chance(t.write)
		out[i] = Ref{Addr: addr, Write: w}
	}
	t.x, t.runLeft, t.cursor, t.end = x, left, cursor, end
}

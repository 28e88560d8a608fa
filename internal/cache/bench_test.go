package cache

import (
	"testing"

	"capsim/internal/rng"
)

// benchAddrs builds a deterministic address stream with the spatial mix the
// simulators see (sequential word runs + random jumps).
func benchAddrs(n int, footprint uint64) []uint64 {
	gen := newSynthStream(1998, footprint)
	out := make([]uint64, n)
	for i := range out {
		out[i], _ = gen.next()
	}
	return out
}

// BenchmarkIndexPow2 measures the shift/mask decode (PaperParams: 128 sets).
func BenchmarkIndexPow2(b *testing.B) {
	ix := NewIndexer(PaperParams().BlockBytes, PaperParams().Sets())
	addrs := benchAddrs(1<<12, 1<<20)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		set, tag := ix.Index(addrs[i&(len(addrs)-1)])
		sink += uint64(set) + tag
	}
	_ = sink
}

// BenchmarkIndexNonPow2 measures the div/mod fallback (24 sets).
func BenchmarkIndexNonPow2(b *testing.B) {
	ix := NewIndexer(nonPow2Params().BlockBytes, nonPow2Params().Sets())
	addrs := benchAddrs(1<<12, 1<<20)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		set, tag := ix.Index(addrs[i&(len(addrs)-1)])
		sink += uint64(set) + tag
	}
	_ = sink
}

// BenchmarkHierarchyAccess measures single-hierarchy access throughput.
func BenchmarkHierarchyAccess(b *testing.B) {
	h := MustNew(PaperParams(), 4)
	addrs := benchAddrs(1<<16, 1<<18)
	r := rng.New(7)
	writes := make([]bool, len(addrs))
	for i := range writes {
		writes[i] = r.Bool(0.3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (len(addrs) - 1)
		h.Access(addrs[j], writes[j])
	}
}

// BenchmarkMultiHierarchyAccess measures the one-pass engine evaluating all
// 8 paper boundaries per reference. Compare ns/op against 8x
// BenchmarkIndependentBoundaries to see the one-pass advantage (shared
// decode, fast path, SoA locality).
func BenchmarkMultiHierarchyAccess(b *testing.B) {
	m, err := NewMulti(PaperParams(), 8)
	if err != nil {
		b.Fatal(err)
	}
	addrs := benchAddrs(1<<16, 1<<18)
	r := rng.New(7)
	writes := make([]bool, len(addrs))
	for i := range writes {
		writes[i] = r.Bool(0.3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (len(addrs) - 1)
		accessAddr(m, addrs[j], writes[j])
	}
}

// BenchmarkIndependentBoundaries measures the test oracle's cost per
// reference: 8 independent hierarchies each replaying the same stream.
func BenchmarkIndependentBoundaries(b *testing.B) {
	p := PaperParams()
	hs := make([]*Hierarchy, 8)
	for k := 1; k <= 8; k++ {
		hs[k-1] = MustNew(p, k)
	}
	addrs := benchAddrs(1<<16, 1<<18)
	r := rng.New(7)
	writes := make([]bool, len(addrs))
	for i := range writes {
		writes[i] = r.Bool(0.3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (len(addrs) - 1)
		for _, h := range hs {
			h.Access(addrs[j], writes[j])
		}
	}
}

package classify

import (
	"testing"

	"capsim/internal/cache"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// fuzzParams is a small geometry so fuzz inputs of a few hundred references
// can exercise swaps, structure misses and writebacks, not just cold fills.
func fuzzParams() cache.Params {
	p := cache.PaperParams()
	p.IncrementBytes = 1024
	p.IncrementAssoc = 1
	p.BlockBytes = 32
	p.Increments = 4
	return p
}

// expectClass derives the ground-truth class for one reference from a
// Hierarchy oracle: the level Access returned plus the stat deltas that
// identify the structural side effects (swap on an L2 hit, dirty-victim
// writeback on a miss).
func expectClass(h *cache.Hierarchy, addr uint64, write bool) uint8 {
	before := h.Stats()
	lvl := h.Access(addr, write)
	after := h.Stats()
	switch lvl {
	case cache.L1Hit:
		return cache.ClassL1Hit
	case cache.L2Hit:
		if after.Swaps != before.Swaps+1 {
			panic("cache: L2 hit without a swap")
		}
		return cache.ClassL2Swap
	default:
		if after.Writebacks == before.Writebacks+1 {
			return cache.ClassMissWB
		}
		return cache.ClassMissLoad
	}
}

// FuzzClassifyRoundTrip drives a fuzz-derived reference stream through the
// classification producer (cache.MultiHierarchy.AccessClasses), checks every
// class against an independent per-boundary Hierarchy oracle — level AND
// side effects (swap, writeback) — then encodes each row with the RLE+varint
// codec and replays it through a Cursor, requiring the exact sequence back,
// run boundaries included. Finally it pins the overrun contract: reading one
// class past the materialized length panics.
func FuzzClassifyRoundTrip(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x01, 0x02, 0x03, 0xfe, 0xff, 0x80, 0x7f})
	f.Add([]byte("interleaved writes and jumps, enough bytes for a few sets"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1<<12 {
			t.Skip()
		}
		p := fuzzParams()
		maxB := p.Increments - 1
		mh, err := cache.NewMulti(p, maxB)
		if err != nil {
			t.Fatalf("NewMulti: %v", err)
		}
		oracles := make([]*cache.Hierarchy, maxB+1)
		for k := 1; k <= maxB; k++ {
			oracles[k] = cache.MustNew(p, k)
		}
		sets, block := uint64(p.Sets()), uint64(p.BlockBytes)
		footprint := sets * block * 8 // a few times the structure size

		// Derive the stream from the fuzz bytes: each byte yields one
		// reference — bit 0 is the write flag, bit 1 selects sequential
		// vs. hashed jump, the rest perturbs the jump target.
		encs := make([]encoder, maxB)
		expected := make([][]uint8, maxB)
		classes := make([]uint8, maxB)
		var addr uint64
		for i, b := range data {
			write := b&1 == 1
			if b&2 == 2 {
				addr += block / 2 // straddles blocks every other step
			} else {
				addr = (addr*0x9e3779b97f4a7c15 + uint64(b) + uint64(i)) % footprint
			}
			blk := addr / block
			set, tag := int(blk%sets), blk/sets
			mh.AccessClasses(set, tag, write, classes)
			for k := 1; k <= maxB; k++ {
				want := expectClass(oracles[k], addr, write)
				if classes[k-1] != want {
					t.Fatalf("ref %d boundary %d: class %d, oracle %d", i, k, classes[k-1], want)
				}
				encs[k-1].add(classes[k-1])
				expected[k-1] = append(expected[k-1], want)
			}
		}
		s := &Stream{maxB: maxB, nrefs: int64(len(data)), rows: make([][]byte, maxB)}
		for kb := range encs {
			encs[kb].flush()
			s.rows[kb] = encs[kb].buf
		}
		for k := 1; k <= maxB; k++ {
			c := s.Cursor(k)
			for i, want := range expected[k-1] {
				if got := c.Next(); got != want {
					t.Fatalf("boundary %d ref %d: decoded %d, want %d", k, i, got, want)
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("boundary %d: read past NRefs did not panic", k)
					}
				}()
				c.Next()
			}()
		}
	})
}

// TestClassLevel pins the class→level projection used by replay consumers.
func TestClassLevel(t *testing.T) {
	cases := []struct {
		cls  uint8
		want cache.Level
	}{
		{cache.ClassL1Hit, cache.L1Hit},
		{cache.ClassL2Swap, cache.L2Hit},
		{cache.ClassMissLoad, cache.Miss},
		{cache.ClassMissWB, cache.Miss},
	}
	for _, tc := range cases {
		if got := cache.ClassLevel(tc.cls); got != tc.want {
			t.Fatalf("ClassLevel(%d) = %v, want %v", tc.cls, got, tc.want)
		}
	}
}

// TestStreamForAgainstStats decodes a real application's stream end-to-end
// and requires the class census at every boundary to reproduce the hierarchy
// counters of an independent MultiHierarchy replay: hits, swaps, structure
// misses and writebacks all follow from the four classes.
func TestStreamForAgainstStats(t *testing.T) {
	b, err := workload.ByName("gcc")
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	p := cache.PaperParams()
	const (
		seed  = uint64(1998)
		maxB  = 3
		nrefs = int64(40_000)
	)
	s, err := StreamFor(b, seed, p, maxB, nrefs)
	if err != nil {
		t.Fatalf("StreamFor: %v", err)
	}
	if s.maxB != maxB || s.nrefs != nrefs {
		t.Fatalf("stream shape (%d,%d), want (%d,%d)", s.maxB, s.nrefs, maxB, nrefs)
	}
	mh, err := cache.NewMulti(p, maxB)
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	mh.Replay(trace.DecodedFor(trace.RefsFor(b, seed), trace.Geometry{BlockBytes: p.BlockBytes, Sets: p.Sets()}).Cursor(), nrefs)
	stats := mh.Stats()
	for k := 1; k <= maxB; k++ {
		var census [4]uint64
		c := s.Cursor(k)
		for i := int64(0); i < nrefs; i++ {
			census[c.Next()]++
		}
		st := stats[k]
		l1Miss := census[cache.ClassL2Swap] + census[cache.ClassMissLoad] + census[cache.ClassMissWB]
		l2Miss := census[cache.ClassMissLoad] + census[cache.ClassMissWB]
		if st.Refs != uint64(nrefs) || st.L1Misses != l1Miss || st.L2Misses != l2Miss ||
			st.Swaps != census[cache.ClassL2Swap] || st.Writebacks != census[cache.ClassMissWB] {
			t.Fatalf("boundary %d: census %v inconsistent with stats %+v", k, census, st)
		}
	}
	if s.Bytes() <= 0 || s.RawBytes() != nrefs*maxB {
		t.Fatalf("byte accounting: enc=%d raw=%d", s.Bytes(), s.RawBytes())
	}
	if s.Bytes()*4 > s.RawBytes() {
		t.Fatalf("compression ratio %.2f worse than 0.25x raw", float64(s.Bytes())/float64(s.RawBytes()))
	}
}

// TestCursorBounds pins the boundary-range contract of Stream.Cursor.
func TestCursorBounds(t *testing.T) {
	s := &Stream{maxB: 2, nrefs: 1, rows: [][]byte{{0x04}, {0x05}}}
	for _, k := range []int{0, 3, -1} {
		k := k
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Cursor(%d) did not panic", k)
				}
			}()
			s.Cursor(k)
		}()
	}
	if got := s.Cursor(2).Next(); got != cache.ClassL2Swap {
		t.Fatalf("Cursor(2).Next() = %d, want %d", got, cache.ClassL2Swap)
	}
}

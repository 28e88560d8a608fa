package cache

import (
	"testing"
)

// FuzzMultiHierarchy holds MultiHierarchy to one independent Hierarchy per
// boundary on byte-coded reference streams. The first four bytes pick the
// geometry:
//
//	0: increments 2-8
//	1: the largest boundary evaluated, 1..increments-1
//	2: increment associativity 1-3
//	3: sets per increment, one of 1, 2, 3 (not a power of two), 4, 8
//
// Every later byte is one reference: bits 7-6 pick the operation, bit 5
// makes it a write and bits 4-0 are its argument.
//
//	0: the last block again (a stack-distance-zero run, the fast path)
//	1: tag arg in the last set (set conflicts beyond the total ways)
//	2: set arg, tag arg/sets of a small footprint
//	3: the next sequential block
//
// Odd references go through AccessClasses and each boundary's class must
// name the level the oracle serviced it at. After every reference each
// boundary's Stats and every way's residency (valid bit and tag) must match
// its oracle, and both sides must keep exclusivity.
func FuzzMultiHierarchy(f *testing.F) {
	f.Add([]byte{2, 7, 1, 3, 0x40, 0x41, 0x42, 0x43, 0x44, 0x00, 0x20, 0x45, 0x46, 0x47, 0x48, 0x60, 0x41})
	f.Add([]byte{0, 0, 0, 0, 0x00, 0x20, 0x00, 0xc0, 0xe0, 0xc0, 0x00, 0x41, 0x40})
	f.Add([]byte{6, 3, 2, 2, 0x80, 0x81, 0x82, 0x83, 0xa4, 0x85, 0x46, 0x47, 0x68, 0x49, 0x4a, 0x4b, 0x4c, 0x00, 0x00, 0x80})
	f.Add([]byte{3, 1, 1, 4, 0x9f, 0xbe, 0x9d, 0x00, 0x20, 0x00, 0x5f, 0x40, 0x5e, 0x41, 0x5d, 0x42, 0xc0, 0xc0, 0xe0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		p := PaperParams()
		p.Increments = 2 + int(data[0])%7
		maxB := 1 + int(data[1])%(p.Increments-1)
		p.IncrementAssoc = 1 + int(data[2])%3
		sets := []int{1, 2, 3, 4, 8}[int(data[3])%5]
		p.IncrementBytes = sets * p.BlockBytes * p.IncrementAssoc
		mh, err := NewMulti(p, maxB)
		if err != nil {
			t.Fatal(err)
		}
		oracles := make([]*Hierarchy, maxB+1)
		for k := 1; k <= maxB; k++ {
			oracles[k] = MustNew(p, k)
		}
		classes := make([]uint8, maxB)
		ways := p.TotalWays()
		block := uint64(0)
		for i, b := range data[4:] {
			op, write, arg := b>>6, b&0x20 != 0, uint64(b&0x1f)
			set, tag := block%uint64(sets), block/uint64(sets)
			switch op {
			case 1:
				tag = arg
			case 2:
				set, tag = arg%uint64(sets), arg/uint64(sets)
			case 3:
				set, tag = (block+1)%uint64(sets), (block+1)/uint64(sets)
			}
			block = tag*uint64(sets) + set
			addr := block*uint64(p.BlockBytes) + arg%uint64(p.BlockBytes)
			s, tg := mh.ix.Index(addr)
			if i%2 == 1 {
				mh.AccessClasses(s, tg, write, classes)
			} else {
				mh.Access(s, tg, write)
			}
			stats := mh.Stats()
			for k := 1; k <= maxB; k++ {
				lvl := oracles[k].Access(addr, write)
				if i%2 == 1 && ClassLevel(classes[k-1]) != lvl {
					t.Fatalf("ref %d boundary %d: class %d (level %v), oracle %v", i, k, classes[k-1], ClassLevel(classes[k-1]), lvl)
				}
				if got, want := stats[k], oracles[k].Stats(); got != want {
					t.Fatalf("ref %d boundary %d: stats %+v, oracle %+v", i, k, got, want)
				}
				for st := 0; st < sets; st++ {
					base := (st*maxB + k - 1) * ways
					for w, ow := range oracles[k].sets[st] {
						valid := mh.flags[base+w]&mhValid != 0
						if valid != ow.valid || (valid && mh.tags[base+w] != ow.tag) {
							t.Fatalf("ref %d boundary %d set %d way %d: valid=%v tag %#x, oracle valid=%v tag %#x",
								i, k, st, w, valid, mh.tags[base+w], ow.valid, ow.tag)
						}
					}
				}
				if err := oracles[k].CheckExclusive(); err != nil {
					t.Fatalf("ref %d oracle %d: %v", i, k, err)
				}
			}
			if err := mh.CheckExclusive(); err != nil {
				t.Fatalf("ref %d: %v", i, err)
			}
		}
	})
}

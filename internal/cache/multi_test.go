package cache

import (
	"testing"
	"testing/quick"

	"capsim/internal/rng"
)

// synthStream generates a deterministic address stream with heavy spatial
// locality (sequential word runs exercise MultiHierarchy's stack-distance-zero
// fast path) punctuated by random jumps inside a bounded footprint (which
// force conflicts, swaps, structure misses and writebacks).
type synthStream struct {
	r         *rng.Source
	last      uint64
	footprint uint64
}

func newSynthStream(seed, footprint uint64) *synthStream {
	return &synthStream{r: rng.New(seed), footprint: footprint}
}

func (s *synthStream) next() (addr uint64, write bool) {
	if s.r.Bool(0.7) {
		s.last += 4 // sequential word access
	} else {
		s.last = uint64(s.r.Intn(int(s.footprint)))
	}
	return s.last, s.r.Bool(0.3)
}

// nonPow2Params builds a geometry whose set count (24) is NOT a power of two,
// forcing the div/mod decode path in both Hierarchy and MultiHierarchy.
func nonPow2Params() Params {
	p := PaperParams()
	p.IncrementBytes = 1536
	p.IncrementAssoc = 2
	p.BlockBytes = 32
	p.Increments = 5
	return p
}

// accessAddr decodes one address under m's geometry and applies it to
// every boundary, the address-level form of Access.
func accessAddr(m *MultiHierarchy, addr uint64, write bool) {
	set, tag := m.ix.Index(addr)
	m.Access(set, tag, write)
}

// runDifferential replays one synthetic stream through a MultiHierarchy and
// maxB independent Hierarchy oracles in parallel, checking per-interval stats
// equality, residency agreement and the exclusivity invariant on both sides.
func runDifferential(t *testing.T, p Params, maxB int, seed, footprint uint64, intervals, refsPerInterval int) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("params: %v", err)
	}
	mh, err := NewMulti(p, maxB)
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	oracles := make([]*Hierarchy, maxB+1)
	for k := 1; k <= maxB; k++ {
		oracles[k] = MustNew(p, k)
	}
	gen := newSynthStream(seed, footprint)
	var lastAddr uint64
	for iv := 0; iv < intervals; iv++ {
		for i := 0; i < refsPerInterval; i++ {
			addr, write := gen.next()
			lastAddr = addr
			accessAddr(mh, addr, write)
			for k := 1; k <= maxB; k++ {
				oracles[k].Access(addr, write)
			}
		}
		stats := mh.Stats()
		for k := 1; k <= maxB; k++ {
			got, want := stats[k], oracles[k].Stats()
			if got != want {
				t.Fatalf("interval %d boundary %d: stats diverge\n one-pass: %+v\n oracle:   %+v", iv, k, got, want)
			}
		}
		if err := mh.CheckExclusive(); err != nil {
			t.Fatalf("interval %d: %v", iv, err)
		}
		for k := 1; k <= maxB; k++ {
			if err := oracles[k].CheckExclusive(); err != nil {
				t.Fatalf("interval %d oracle %d: %v", iv, k, err)
			}
			gl, gok := mh.Contains(k, lastAddr)
			wl, wok := oracles[k].Contains(lastAddr)
			if gl != wl || gok != wok {
				t.Fatalf("interval %d boundary %d: Contains(%#x) = (%v,%v), oracle (%v,%v)",
					iv, k, lastAddr, gl, gok, wl, wok)
			}
		}
	}
}

// TestMultiHierarchyDifferential is the bit-identity contract of the one-pass
// engine: for every boundary position, MultiHierarchy's counters equal those
// of an independent Hierarchy replaying the same stream — checked interval by
// interval across pow2 and non-pow2 geometries, including both edge
// boundaries (k=1 and k=Increments-1 via maxB = Increments-1).
func TestMultiHierarchyDifferential(t *testing.T) {
	paper := PaperParams()
	cases := []struct {
		name      string
		p         Params
		maxB      int
		footprint uint64
	}{
		{"paper/maxB=8", paper, 8, 1 << 17},
		{"paper/maxB=1", paper, 1, 1 << 16},
		{"paper/maxB=max", paper, paper.Increments - 1, 1 << 18},
		{"nonpow2/maxB=4", nonPow2Params(), 4, 1 << 14},
		{"nonpow2/maxB=1", nonPow2Params(), 1, 1 << 13},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			intervals, refs := 12, 800
			if testing.Short() {
				intervals, refs = 4, 400
			}
			runDifferential(t, tc.p, tc.maxB, 1998, tc.footprint, intervals, refs)
		})
	}
}

// TestMultiHierarchyQuick fuzzes the differential property over random seeds
// and boundary counts.
func TestMultiHierarchyQuick(t *testing.T) {
	f := func(seed uint64, bRaw uint8) bool {
		p := PaperParams()
		maxB := 1 + int(bRaw)%(p.Increments-1)
		mh, err := NewMulti(p, maxB)
		if err != nil {
			return false
		}
		oracles := make([]*Hierarchy, maxB+1)
		for k := 1; k <= maxB; k++ {
			oracles[k] = MustNew(p, k)
		}
		gen := newSynthStream(seed, 1<<17)
		for i := 0; i < 2000; i++ {
			addr, write := gen.next()
			accessAddr(mh, addr, write)
			for k := 1; k <= maxB; k++ {
				oracles[k].Access(addr, write)
			}
		}
		stats := mh.Stats()
		for k := 1; k <= maxB; k++ {
			if stats[k] != oracles[k].Stats() {
				return false
			}
		}
		return mh.CheckExclusive() == nil
	}
	n := 25
	if testing.Short() {
		n = 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Error(err)
	}
}

// sliceSource feeds a fixed pre-decoded slice; it implements DecodedSource.
type sliceSource struct {
	sets   []int32
	tags   []uint64
	writes []bool
	i      int
}

func (s *sliceSource) NextDecoded() (int32, uint64, bool) {
	i := s.i
	s.i++
	return s.sets[i], s.tags[i], s.writes[i]
}

// TestMultiReplayMatchesAccessAddr checks that Replay over a pre-decoded
// stream equals the same references applied address by address through
// accessAddr — i.e. the decode split commutes with the update.
func TestMultiReplayMatchesAccessAddr(t *testing.T) {
	p := PaperParams()
	a, err := NewMulti(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMulti(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	gen := newSynthStream(7, 1<<16)
	src := &sliceSource{}
	n := 3000
	for i := 0; i < n; i++ {
		addr, write := gen.next()
		accessAddr(a, addr, write)
		set, tag := a.ix.Index(addr)
		src.sets = append(src.sets, int32(set))
		src.tags = append(src.tags, tag)
		src.writes = append(src.writes, write)
	}
	b.Replay(src, int64(n))
	as, bs := a.Stats(), b.Stats()
	for k := 1; k <= 4; k++ {
		if as[k] != bs[k] {
			t.Fatalf("boundary %d: accessAddr %+v != Replay %+v", k, as[k], bs[k])
		}
	}
}

// TestNewMultiRejects locks the constructor's validation.
func TestNewMultiRejects(t *testing.T) {
	p := PaperParams()
	if _, err := NewMulti(p, 0); err == nil {
		t.Error("maxBoundary 0 accepted")
	}
	if _, err := NewMulti(p, p.Increments); err == nil {
		t.Error("maxBoundary = Increments accepted")
	}
	bad := p
	bad.BlockBytes = 48
	if _, err := NewMulti(bad, 4); err == nil {
		t.Error("invalid params accepted")
	}
	m, err := NewMulti(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Stats()); got != 5 {
		t.Errorf("Stats length %d, want 5", got)
	}
}

// TestAccessLevelsDifferential checks the classification contract on the
// path classification uses: AccessClasses reports, per boundary, a class
// whose service level (ClassLevel) is exactly the Level that an independent
// Hierarchy.Access returns for the same reference — through both the fast
// path (spatial runs) and the slow lockstep path — while keeping the stats
// bit-identical to both the oracles and plain Access.
func TestAccessLevelsDifferential(t *testing.T) {
	for _, tc := range []struct {
		name      string
		p         Params
		maxB      int
		footprint uint64
	}{
		{"paper/maxB=8", PaperParams(), 8, 1 << 17},
		{"nonpow2/maxB=4", nonPow2Params(), 4, 1 << 14},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mh, err := NewMulti(tc.p, tc.maxB)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := NewMulti(tc.p, tc.maxB)
			if err != nil {
				t.Fatal(err)
			}
			oracles := make([]*Hierarchy, tc.maxB+1)
			for k := 1; k <= tc.maxB; k++ {
				oracles[k] = MustNew(tc.p, k)
			}
			gen := newSynthStream(42, tc.footprint)
			classes := make([]uint8, tc.maxB)
			n := 20000
			if testing.Short() {
				n = 4000
			}
			for i := 0; i < n; i++ {
				addr, write := gen.next()
				set, tag := mh.ix.Index(addr)
				mh.AccessClasses(set, tag, write, classes)
				plain.Access(set, tag, write)
				for k := 1; k <= tc.maxB; k++ {
					if got, want := ClassLevel(classes[k-1]), oracles[k].Access(addr, write); got != want {
						t.Fatalf("ref %d boundary %d: class %d (level %v), oracle %v", i, k, classes[k-1], got, want)
					}
				}
			}
			got, want := mh.Stats(), plain.Stats()
			for k := 1; k <= tc.maxB; k++ {
				if got[k] != want[k] || got[k] != oracles[k].Stats() {
					t.Fatalf("boundary %d: AccessClasses stats %+v, Access stats %+v, oracle %+v",
						k, got[k], want[k], oracles[k].Stats())
				}
			}
		})
	}
}

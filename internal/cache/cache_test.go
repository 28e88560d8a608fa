package cache

import (
	"math"
	"testing"
	"testing/quick"

	"capsim/internal/rng"
	"capsim/internal/tech"
)

func smallParams() Params {
	p := PaperParams()
	return p
}

func TestParamsValidate(t *testing.T) {
	if err := PaperParams().Validate(); err != nil {
		t.Fatalf("paper params rejected: %v", err)
	}
	bad := PaperParams()
	bad.Increments = 1
	if err := bad.Validate(); err == nil {
		t.Error("single increment accepted")
	}
	bad = PaperParams()
	bad.BlockBytes = 48
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two block accepted")
	}
	bad = PaperParams()
	bad.IncrementBytes = 1000
	if err := bad.Validate(); err == nil {
		t.Error("indivisible increment accepted")
	}
}

// TestParamsValidateRejectsNonFiniteFeature: NaN and +Inf compare false
// against "<= 0"; before the finiteness check `capsim -feature NaN` rendered
// a table of NaN.
func TestParamsValidateRejectsNonFiniteFeature(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.18} {
		p := PaperParams()
		p.Feature = tech.FeatureSize(f)
		if err := p.Validate(); err == nil {
			t.Errorf("feature %v accepted", f)
		}
	}
}

func TestGeometryHelpers(t *testing.T) {
	p := PaperParams()
	if got := p.Sets(); got != 128 {
		t.Errorf("sets = %d, want 128", got)
	}
	if got := p.TotalWays(); got != 32 {
		t.Errorf("total ways = %d, want 32", got)
	}
	if got := p.TotalBytes(); got != 128*1024 {
		t.Errorf("total bytes = %d, want 128K", got)
	}
	if got := p.L1Bytes(2); got != 16*1024 {
		t.Errorf("L1Bytes(2) = %d", got)
	}
	if got := p.L1Assoc(2); got != 4 {
		t.Errorf("L1Assoc(2) = %d", got)
	}
	lo, hi := p.Boundaries()
	if lo != 1 || hi != 15 {
		t.Errorf("boundaries [%d,%d], want [1,15]", lo, hi)
	}
}

func TestNewRejectsBadBoundary(t *testing.T) {
	p := PaperParams()
	if _, err := New(p, 0); err == nil {
		t.Error("boundary 0 accepted")
	}
	if _, err := New(p, 16); err == nil {
		t.Error("boundary = increments accepted")
	}
}

func TestHitAfterFill(t *testing.T) {
	h := MustNew(smallParams(), 2)
	addr := uint64(0x12340)
	if lvl := h.Access(addr, false); lvl != Miss {
		t.Fatalf("first access level %v, want Miss", lvl)
	}
	if lvl := h.Access(addr, false); lvl != L1Hit {
		t.Fatalf("second access level %v, want L1Hit", lvl)
	}
	// Same block, different word.
	if lvl := h.Access(addr+8, false); lvl != L1Hit {
		t.Fatalf("same-block access level %v, want L1Hit", lvl)
	}
	// Different block.
	if lvl := h.Access(addr+uint64(h.Params().BlockBytes), false); lvl != Miss {
		t.Fatalf("next-block access should miss")
	}
}

func TestL1EvictionGoesToL2(t *testing.T) {
	p := smallParams()
	h := MustNew(p, 1) // 2 L1 ways per set
	sets := uint64(p.Sets())
	blk := uint64(p.BlockBytes)
	// Fill 3 blocks mapping to set 0: L1 holds 2; the first should be
	// demoted to L2, not lost.
	a0 := uint64(0)
	a1 := sets * blk
	a2 := 2 * sets * blk
	h.Access(a0, false)
	h.Access(a1, false)
	h.Access(a2, false) // evicts a0 (LRU) into L2
	if lvl := h.Access(a0, false); lvl != L2Hit {
		t.Fatalf("demoted block access level %v, want L2Hit", lvl)
	}
	// Exclusive swap: a0 is now back in L1.
	if lvl, ok := h.Contains(a0); !ok || lvl != L1Hit {
		t.Errorf("swapped-in block at %v (present %v), want L1", lvl, ok)
	}
	if err := h.CheckExclusive(); err != nil {
		t.Error(err)
	}
}

func TestLRUWithinL1(t *testing.T) {
	p := smallParams()
	h := MustNew(p, 1)
	sets := uint64(p.Sets())
	blk := uint64(p.BlockBytes)
	a0, a1, a2 := uint64(0), sets*blk, 2*sets*blk
	h.Access(a0, false)
	h.Access(a1, false)
	h.Access(a0, false) // a0 now MRU; a1 is LRU
	h.Access(a2, false) // must evict a1
	if lvl, _ := h.Contains(a0); lvl != L1Hit {
		t.Error("MRU block was evicted")
	}
	if lvl, _ := h.Contains(a1); lvl != L2Hit {
		t.Error("LRU block was not demoted")
	}
}

func TestBoundaryMovePreservesContents(t *testing.T) {
	p := smallParams()
	h := MustNew(p, 2)
	r := rng.New(99)
	addrs := make([]uint64, 600)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1 << 18))
		h.Access(addrs[i], r.Bool(0.3))
	}
	before := h.BlockCount()
	if err := h.SetBoundary(6); err != nil {
		t.Fatal(err)
	}
	if after := h.BlockCount(); after != before {
		t.Errorf("boundary move changed block count %d -> %d", before, after)
	}
	if err := h.CheckExclusive(); err != nil {
		t.Error(err)
	}
	// Every resident block must still be found somewhere.
	for _, a := range addrs {
		if _, ok := h.Contains(a); !ok {
			t.Fatalf("block %#x lost after reconfiguration", a)
		}
	}
	if err := h.SetBoundary(0); err == nil {
		t.Error("illegal boundary accepted")
	}
}

func TestExclusivityProperty(t *testing.T) {
	// Property: after any access sequence with interleaved boundary
	// moves, no block is in two places, and a re-access of the last
	// address always hits.
	f := func(seed uint64, moves []uint8) bool {
		p := smallParams()
		h := MustNew(p, 2)
		r := rng.New(seed)
		var last uint64
		for i := 0; i < 400; i++ {
			last = uint64(r.Intn(1 << 17))
			h.Access(last, r.Bool(0.3))
			if len(moves) > 0 && i%37 == 0 {
				k := 1 + int(moves[i%len(moves)])%8
				if err := h.SetBoundary(k); err != nil {
					return false
				}
			}
		}
		if err := h.CheckExclusive(); err != nil {
			return false
		}
		return h.Access(last, false) == L1Hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	h := MustNew(smallParams(), 2)
	h.Access(0, true)
	h.Access(0, false)
	s := h.Stats()
	if s.Refs != 2 || s.Writes != 1 || s.L1Misses != 1 || s.L2Misses != 1 {
		t.Errorf("stats %+v", s)
	}
	if s.L1MissRatio() != 0.5 || s.L2MissRatio() != 0.5 {
		t.Errorf("ratios %v %v", s.L1MissRatio(), s.L2MissRatio())
	}
	h.ResetStats()
	if h.Stats().Refs != 0 {
		t.Error("ResetStats did not clear")
	}
	if h.BlockCount() == 0 {
		t.Error("ResetStats cleared contents")
	}
}

func TestWritebackCounting(t *testing.T) {
	p := smallParams()
	h := MustNew(p, 1)
	sets := uint64(p.Sets())
	blk := uint64(p.BlockBytes)
	// Fill all 32 ways of set 0 with dirty blocks, then push one more:
	// the L2 LRU eviction must count a writeback.
	for i := uint64(0); i < 32; i++ {
		h.Access(i*sets*blk, true)
	}
	if h.Stats().Writebacks != 0 {
		t.Fatalf("premature writebacks: %d", h.Stats().Writebacks)
	}
	h.Access(32*sets*blk, true)
	if h.Stats().Writebacks == 0 {
		t.Error("dirty eviction not counted as writeback")
	}
}

func TestLevelString(t *testing.T) {
	if L1Hit.String() != "L1" || L2Hit.String() != "L2" || Miss.String() != "memory" {
		t.Error("Level.String broken")
	}
}

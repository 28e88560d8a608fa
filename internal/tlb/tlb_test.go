package tlb

import (
	"math"
	"testing"
	"testing/quick"

	"capsim/internal/rng"
	"capsim/internal/tech"
)

// MustNew is New but panics on error: a constructor for the tests' tables
// of known-good configurations.
func MustNew(p Params, primary int) *TLB {
	t, err := New(p, primary)
	if err != nil {
		panic(err)
	}
	return t
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	bad := DefaultParams()
	bad.PageBytes = 3000
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two page accepted")
	}
	bad = DefaultParams()
	bad.Groups = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero groups accepted")
	}
	bad = DefaultParams()
	bad.WalkCycles = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero walk penalty accepted")
	}
	// NaN and +Inf compare false against "<= 0", so a sign test alone
	// accepts them.
	for _, f := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		bad = DefaultParams()
		bad.Feature = tech.FeatureSize(f)
		if err := bad.Validate(); err == nil {
			t.Errorf("feature size %v accepted", f)
		}
	}
}

func TestNewBounds(t *testing.T) {
	p := DefaultParams()
	if _, err := New(p, 0); err == nil {
		t.Error("primary 0 accepted")
	}
	if _, err := New(p, p.Groups+1); err == nil {
		t.Error("primary > groups accepted")
	}
	if p.TotalEntries() != 128 {
		t.Errorf("total entries %d", p.TotalEntries())
	}
}

func TestLookupBasics(t *testing.T) {
	tb := MustNew(DefaultParams(), 2)
	addr := uint64(0x1234567)
	if o := tb.Lookup(addr); o != Walk {
		t.Fatalf("first lookup %v, want walk", o)
	}
	if o := tb.Lookup(addr); o != PrimaryHit {
		t.Fatalf("second lookup %v, want primary hit", o)
	}
	// Same page, different offset.
	if o := tb.Lookup(addr + 100); o != PrimaryHit {
		t.Fatalf("same-page lookup %v", o)
	}
	// Different page.
	if o := tb.Lookup(addr + 4096); o != Walk {
		t.Fatalf("next-page lookup %v, want walk", o)
	}
	s := tb.Stats()
	if s.Lookups != 4 || s.Walks != 2 || s.PrimaryHits != 2 {
		t.Errorf("stats %+v", s)
	}
}

func TestBackupSectionCatchesEvictions(t *testing.T) {
	p := DefaultParams() // 4 groups of 32
	tb := MustNew(p, 1)  // primary = 32 entries, backup = 96
	// Touch 64 pages: the first 32 are demoted to backup, not lost.
	for i := 0; i < 64; i++ {
		tb.Lookup(uint64(i) * 4096)
	}
	tb.ResetStats()
	if o := tb.Lookup(0); o != BackupHit {
		t.Fatalf("evicted page lookup %v, want backup hit", o)
	}
	// The promotion moved it to the primary section.
	tb.ResetStats()
	if o := tb.Lookup(0); o != PrimaryHit {
		t.Fatalf("promoted page lookup %v, want primary hit", o)
	}
	if err := tb.CheckUnique(); err != nil {
		t.Error(err)
	}
}

func TestLookupCycleGrowsWithPrimary(t *testing.T) {
	p := DefaultParams()
	tp := tech.ForFeature(p.Feature)
	prev := 0.0
	for g := 1; g <= p.Groups; g++ {
		c := LookupCycle(p, g, tp)
		if c <= prev {
			t.Errorf("primary=%d: cycle %v not greater than %v", g, c, prev)
		}
		prev = c
	}
}

func TestEvaluateTradeoff(t *testing.T) {
	// A working set that fits 2 groups but not 1: the 2-group primary
	// should win TPI despite its slower lookup cycle.
	p := DefaultParams()
	src := rng.New(42)
	runFor := func(primary int) float64 {
		tb := MustNew(p, primary)
		s2 := rng.New(42)
		_ = src
		for i := 0; i < 60000; i++ {
			page := uint64(s2.Intn(60)) // 60 hot pages
			tb.Lookup(page * 4096)
		}
		return Evaluate(p, primary, tb.Stats())
	}
	t1, t2 := runFor(1), runFor(2)
	if t2 >= t1 {
		t.Errorf("2-group primary (%v ns) should beat 1-group (%v ns) on a 60-page set", t2, t1)
	}
}

func TestUniquenessProperty(t *testing.T) {
	f := func(seed uint64, primary uint8, backup bool) bool {
		p := DefaultParams()
		tb, err := build(p, 1+int(primary)%p.Groups, backup)
		if err != nil {
			return false
		}
		r := rng.New(seed)
		for i := 0; i < 500; i++ {
			tb.Lookup(uint64(r.Intn(300)) * 4096)
		}
		return tb.CheckUnique() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOutcomeString(t *testing.T) {
	if PrimaryHit.String() != "primary" || BackupHit.String() != "backup" || Walk.String() != "walk" {
		t.Error("Outcome.String broken")
	}
}

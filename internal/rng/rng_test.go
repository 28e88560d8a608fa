package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d/100 collisions between different seeds", same)
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	s1 := DeriveSeed(7, "alpha")
	s2 := DeriveSeed(7, "beta")
	s3 := DeriveSeed(8, "alpha")
	if s1 == s2 || s1 == s3 || s2 == s3 {
		t.Errorf("derived seeds collide: %x %x %x", s1, s2, s3)
	}
	if DeriveSeed(7, "alpha") != s1 {
		t.Error("DeriveSeed not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of range: %v", x)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v, want ~0.5", mean)
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	r.Intn(0)
}

func TestBoolEdges(t *testing.T) {
	r := New(7)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate %v", frac)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(8)
	const p = 0.25
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	want := (1 - p) / p // = 3
	if mean := sum / n; math.Abs(mean-want) > 0.1 {
		t.Errorf("Geometric(%v) mean %v, want %v", p, mean, want)
	}
	if r.Geometric(1) != 0 {
		t.Error("Geometric(1) should be 0")
	}
}

func TestWeighted(t *testing.T) {
	r := New(9)
	counts := [3]int{}
	const n = 90000
	for i := 0; i < n; i++ {
		counts[r.Weighted([]float64{1, 2, 0})]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight index selected %d times", counts[2])
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if math.Abs(ratio-2) > 0.1 {
		t.Errorf("weight ratio %v, want 2", ratio)
	}
}

func TestWeightedPanics(t *testing.T) {
	r := New(10)
	for _, ws := range [][]float64{nil, {}, {0, 0}, {-1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Weighted(%v) did not panic", ws)
				}
			}()
			r.Weighted(ws)
		}()
	}
}

func TestSplitMix64KnownSequenceStable(t *testing.T) {
	// Lock the generator's output so workloads stay reproducible across
	// refactors: these values were produced by this implementation and
	// must never change.
	s := uint64(0)
	got := [3]uint64{SplitMix64(&s), SplitMix64(&s), SplitMix64(&s)}
	want := [3]uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	if got != want {
		t.Errorf("SplitMix64 sequence changed: %x", got)
	}
}

func TestUniformityProperty(t *testing.T) {
	// Property: for any seed, Intn(n) over many draws covers all residues.
	f := func(seed uint64) bool {
		r := New(seed)
		seen := map[int]bool{}
		for i := 0; i < 200; i++ {
			seen[r.Intn(8)] = true
		}
		return len(seen) == 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

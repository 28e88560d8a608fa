package workload

import (
	"math"
	"testing"
)

func TestInstrStreamDeterminism(t *testing.T) {
	b := MustByName("vortex")
	s1 := NewInstrStream(b, 11)
	s2 := NewInstrStream(b, 11)
	for i := 0; i < 20000; i++ {
		if s1.Next() != s2.Next() {
			t.Fatalf("streams diverged at instruction %d", i)
		}
	}
}

func TestDistancesPositiveAndBounded(t *testing.T) {
	for _, name := range []string{"gcc", "appcg", "compress", "turb3d"} {
		s := NewInstrStream(MustByName(name), 3)
		for i := 0; i < 20000; i++ {
			in := s.Next()
			for _, d := range in.Src {
				if d < 0 {
					t.Fatalf("%s: negative distance %d", name, d)
				}
			}
			if in.Latency < 1 {
				t.Fatalf("%s: latency %d < 1", name, in.Latency)
			}
		}
	}
}

func TestSourceCountDistribution(t *testing.T) {
	p := ILPParams{
		SrcWeights: [3]float64{0.2, 0.5, 0.3},
		Dists:      []GeomComponent{{Mean: 3, Weight: 1}},
		Lats:       []LatComponent{{Cycles: 1, Weight: 1}},
	}
	b := Benchmark{Name: "srcdist", ILP: ILPProfile{Base: p}}
	s := NewInstrStream(b, 5)
	counts := [3]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		in := s.Next()
		nsrc := 0
		if in.Src[0] > 0 {
			nsrc++
		}
		if in.Src[1] > 0 {
			nsrc++
		}
		counts[nsrc]++
	}
	for i, want := range []float64{0.2, 0.5, 0.3} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.015 {
			t.Errorf("%d-source fraction %v, want %v", i, got, want)
		}
	}
}

func TestDistanceMean(t *testing.T) {
	p := ILPParams{
		SrcWeights: [3]float64{0, 1, 0},
		Dists:      []GeomComponent{{Mean: 10, Weight: 1}},
		Lats:       []LatComponent{{Cycles: 1, Weight: 1}},
	}
	b := Benchmark{Name: "distmean", ILP: ILPProfile{Base: p}}
	s := NewInstrStream(b, 6)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(s.Next().Src[0])
	}
	// Distance = 1 + Geometric(1/10): mean = 1 + 9 = 10.
	if mean := sum / n; math.Abs(mean-10) > 0.3 {
		t.Errorf("distance mean %v, want ~10", mean)
	}
}

func TestLatencyMixture(t *testing.T) {
	p := ILPParams{
		SrcWeights: [3]float64{1, 0, 0},
		Dists:      []GeomComponent{{Mean: 2, Weight: 1}},
		Lats:       []LatComponent{{Cycles: 1, Weight: 0.5}, {Cycles: 4, Weight: 0.5}},
	}
	b := Benchmark{Name: "latmix", ILP: ILPProfile{Base: p}}
	s := NewInstrStream(b, 7)
	ones, fours := 0, 0
	const n = 50000
	for i := 0; i < n; i++ {
		switch s.Next().Latency {
		case 1:
			ones++
		case 4:
			fours++
		default:
			t.Fatal("unexpected latency")
		}
	}
	if math.Abs(float64(ones)/n-0.5) > 0.02 {
		t.Errorf("latency-1 fraction %v, want 0.5", float64(ones)/n)
	}
	_ = fours
}

func TestLongBlockPhases(t *testing.T) {
	// turb3d-style: the stream must alternate between Base and Alt in
	// blocks of PeriodInstrs.
	b := MustByName("turb3d")
	s := NewInstrStream(b, 8)
	period := b.ILP.PeriodInstrs
	// Walk to just before the first boundary: still in base.
	for i := int64(0); i < period-10; i++ {
		s.Next()
	}
	if s.InAltPhase() {
		t.Error("in Alt phase before first period boundary")
	}
	for i := int64(0); i < 20; i++ {
		s.Next()
	}
	if !s.InAltPhase() {
		t.Error("not in Alt phase after first period boundary")
	}
	// And back again after another period.
	for i := int64(0); i < period; i++ {
		s.Next()
	}
	if s.InAltPhase() {
		t.Error("still in Alt phase after second boundary")
	}
}

func TestRegularPhasesAlternateQuickly(t *testing.T) {
	// Bursty profiles (PhaseRegular, short period) must flip many times.
	b := MustByName("gcc")
	if b.ILP.Kind != PhaseRegular {
		t.Skip("gcc no longer bursty")
	}
	s := NewInstrStream(b, 9)
	flips, prev := 0, s.InAltPhase()
	for i := 0; i < 5000; i++ {
		s.Next()
		if cur := s.InAltPhase(); cur != prev {
			flips++
			prev = cur
		}
	}
	wantMin := int(5000/b.ILP.PeriodInstrs) - 2
	if flips < wantMin {
		t.Errorf("only %d phase flips in 5000 instructions (period %d)", flips, b.ILP.PeriodInstrs)
	}
}

func TestIrregularRunsVary(t *testing.T) {
	base := MustByName("gcc").ILP.Base
	alt := MustByName("gcc").ILP.Alt
	b := Benchmark{Name: "irr", ILP: ILPProfile{
		Base: base, Alt: alt, Kind: PhaseIrregular, PeriodInstrs: 3000,
	}}
	s := NewInstrStream(b, 10)
	var runs []int64
	cur, runLen := s.InAltPhase(), int64(0)
	for i := 0; i < 200000; i++ {
		s.Next()
		runLen++
		if s.InAltPhase() != cur {
			runs = append(runs, runLen)
			runLen = 0
			cur = s.InAltPhase()
		}
	}
	if len(runs) < 10 {
		t.Fatalf("too few phase runs: %d", len(runs))
	}
	// Runs must vary (irregular), unlike PhaseRegular.
	allSame := true
	for _, r := range runs[1:] {
		if r != runs[0] {
			allSame = false
			break
		}
	}
	if allSame {
		t.Error("irregular phase runs are all identical")
	}
}

func TestCompositeHasBothRegimes(t *testing.T) {
	b := MustByName("vortex")
	s := NewInstrStream(b, 12)
	// Collect phase-run lengths across two super-blocks.
	var runs []int64
	cur, runLen := s.InAltPhase(), int64(0)
	total := 2 * b.ILP.SuperPeriodInstrs
	for i := int64(0); i < total; i++ {
		s.Next()
		runLen++
		if s.InAltPhase() != cur {
			runs = append(runs, runLen)
			runLen = 0
			cur = s.InAltPhase()
		}
	}
	if len(runs) < 20 {
		t.Fatalf("too few runs: %d", len(runs))
	}
	// Regular super-block: many runs exactly equal to PeriodInstrs.
	exact := 0
	for _, r := range runs {
		if r == b.ILP.PeriodInstrs {
			exact++
		}
	}
	if exact < 5 {
		t.Errorf("no regular-alternation regime detected (%d exact runs)", exact)
	}
	// Irregular super-block: some runs that differ.
	if exact == len(runs) {
		t.Error("no irregular regime detected")
	}
}

func TestFillInstr(t *testing.T) {
	s := NewInstrStream(MustByName("li"), 13)
	buf := s.Fill(nil, 64)
	if len(buf) != 64 {
		t.Fatalf("Fill returned %d", len(buf))
	}
	if s.idx != 64 {
		t.Errorf("stream index %d after Fill, want 64", s.idx)
	}
}

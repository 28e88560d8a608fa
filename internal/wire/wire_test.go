package wire

import (
	"math"
	"testing"
	"testing/quick"

	"capsim/internal/tech"
)

var p18 = tech.ForFeature(tech.Micron018)

func TestUnbufferedDelayQuadraticInLength(t *testing.T) {
	// With no element load, doubling the length quadruples the delay.
	l1 := Line{LengthMM: 1}
	l2 := Line{LengthMM: 2}
	d1 := UnbufferedDelay(l1, p18)
	d2 := UnbufferedDelay(l2, p18)
	if math.Abs(d2/d1-4) > 1e-9 {
		t.Errorf("doubling length scaled delay by %v, want 4", d2/d1)
	}
}

func TestUnbufferedDelayFeatureIndependentWithoutLoad(t *testing.T) {
	// The wire itself does not scale with feature size — the paper's
	// single unbuffered curve.
	l := Line{LengthMM: 3}
	d25 := UnbufferedDelay(l, tech.ForFeature(tech.Micron025))
	d12 := UnbufferedDelay(l, tech.ForFeature(tech.Micron012))
	if math.Abs(d25-d12) > 1e-12 {
		t.Errorf("unbuffered delay varies with feature: %v vs %v", d25, d12)
	}
}

func TestBufferedBeatsUnbufferedOnLongLines(t *testing.T) {
	l := Line{LengthMM: 5, LoadC: 3}
	u := UnbufferedDelay(l, p18)
	b, k := OptimalBufferedDelay(l, p18)
	if b >= u {
		t.Errorf("long line: buffered %v not faster than unbuffered %v", b, u)
	}
	if k < 2 {
		t.Errorf("long line: expected multiple repeaters, got %d", k)
	}
}

func TestUnbufferedWinsOnShortLines(t *testing.T) {
	l := Line{LengthMM: 0.2, LoadC: 0.05}
	u := UnbufferedDelay(l, p18)
	b, _ := OptimalBufferedDelay(l, p18)
	if u >= b {
		t.Errorf("short line: unbuffered %v not faster than buffered %v", u, b)
	}
	d, buffered := BestDelay(l, p18)
	if buffered || d != u {
		t.Errorf("BestDelay picked buffered=%v d=%v, want unbuffered %v", buffered, d, u)
	}
}

func TestBufferedDelayImprovesWithScaling(t *testing.T) {
	// Buffered delay is device-limited, so smaller features are faster.
	l := Line{LengthMM: 4, LoadC: 2}
	var prev float64
	for i, f := range tech.Generations() { // 0.25, 0.18, 0.12
		b, _ := OptimalBufferedDelay(l, tech.ForFeature(f))
		if i > 0 && b >= prev {
			t.Errorf("%v: buffered delay %v not faster than previous generation %v", f, b, prev)
		}
		prev = b
	}
}

func TestOptimalRepeaterCountGrowsWithLength(t *testing.T) {
	prev := 0
	for _, mm := range []float64{0.5, 1, 2, 4, 8} {
		k := OptimalRepeaterCount(Line{LengthMM: mm, LoadC: mm}, p18)
		if k < prev {
			t.Errorf("length %vmm: repeater count %d decreased from %d", mm, k, prev)
		}
		prev = k
	}
	if prev < 2 {
		t.Errorf("8mm line should want several repeaters, got %d", prev)
	}
}

func TestBufferedDelayOptimalAtReportedK(t *testing.T) {
	// The reported optimal repeater count should be (near) the argmin of
	// BufferedDelay over k. Allow one step of slack for rounding.
	l := Line{LengthMM: 3.5, LoadC: 2}
	kOpt := OptimalRepeaterCount(l, p18)
	dOpt := BufferedDelay(l, kOpt, p18)
	for k := 1; k <= kOpt+8; k++ {
		if d := BufferedDelay(l, k, p18); d < dOpt*0.98 {
			t.Errorf("k=%d gives %v, substantially better than reported optimum k=%d (%v)", k, d, kOpt, dOpt)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Line{LengthMM: 1, LoadC: 0}).Validate(); err != nil {
		t.Errorf("valid line rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, l := range []Line{
		{LengthMM: -1},
		{LengthMM: 1, LoadC: -0.1},
		{LengthMM: 0, LoadC: 1},
		{LengthMM: nan, LoadC: 1},
		{LengthMM: inf, LoadC: 1},
		{LengthMM: 1, LoadC: nan},
		{LengthMM: 1, LoadC: inf},
		// Finite but beyond any chip: the repeater search would scan ~10^8
		// stage counts at 1e9 mm and overflow to +Inf at 1e200 mm.
		{LengthMM: 1e9, LoadC: 1},
		{LengthMM: 1e200, LoadC: 1},
		{LengthMM: 1e6, LoadC: 1e300},
		{LengthMM: math.Nextafter(MaxLengthMM, inf)},
		{LengthMM: 1, LoadC: math.Nextafter(MaxLoadPF, inf)},
	} {
		if err := l.Validate(); err == nil {
			t.Errorf("line %+v accepted", l)
		}
	}
	// The largest valid line still gets a finite answer at once.
	top := Line{LengthMM: MaxLengthMM, LoadC: MaxLoadPF}
	if err := top.Validate(); err != nil {
		t.Fatalf("largest valid line rejected: %v", err)
	}
	for _, f := range tech.Generations() {
		d, k := OptimalBufferedDelay(top, tech.ForFeature(f))
		if math.IsInf(d, 0) || math.IsNaN(d) || k < 1 {
			t.Errorf("%v: largest valid line buffered to %v ns with %d repeaters", f, d, k)
		}
	}
}

func TestDelayMonotoneProperty(t *testing.T) {
	// Property: delays are positive and non-decreasing in both length and
	// load, for both wire disciplines.
	f := func(l1, l2, c1, c2 uint16) bool {
		a := Line{LengthMM: 0.1 + float64(l1%100)*0.1, LoadC: float64(c1%50) * 0.1}
		b := Line{LengthMM: a.LengthMM + float64(l2%50)*0.1, LoadC: a.LoadC + float64(c2%50)*0.1}
		ua, ub := UnbufferedDelay(a, p18), UnbufferedDelay(b, p18)
		ba, _ := OptimalBufferedDelay(a, p18)
		bb, _ := OptimalBufferedDelay(b, p18)
		return ua > 0 && ba > 0 && ub >= ua && bb >= ba*0.999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOptimalRepeaterSizeAtLeastOne(t *testing.T) {
	if h := OptimalRepeaterSize(Line{LengthMM: 0.01, LoadC: 0}, p18); h < 1 {
		t.Errorf("repeater size %v < 1", h)
	}
}

package tech

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestForFeatureScalesDevicesLinearly(t *testing.T) {
	base := ForFeature(Micron080)
	for _, f := range []FeatureSize{Micron025, Micron018, Micron012} {
		p := ForFeature(f)
		s := float64(f) / float64(Micron080)
		if got := p.ScaleFactor; math.Abs(got-s) > 1e-12 {
			t.Errorf("%v: scale factor %v, want %v", f, got, s)
		}
		if got, want := p.BufferDelay, base.BufferDelay*s; math.Abs(got-want) > 1e-12 {
			t.Errorf("%v: buffer delay %v, want %v", f, got, want)
		}
		if got, want := p.BufferC, base.BufferC*s; math.Abs(got-want) > 1e-12 {
			t.Errorf("%v: buffer C %v, want %v", f, got, want)
		}
		if got, want := p.GateDelayFO4, base.GateDelayFO4*s; math.Abs(got-want) > 1e-12 {
			t.Errorf("%v: FO4 %v, want %v", f, got, want)
		}
	}
}

func TestForFeatureKeepsWireConstant(t *testing.T) {
	base := ForFeature(Micron080)
	for _, f := range Generations() {
		p := ForFeature(f)
		if p.WireRPerMM != base.WireRPerMM || p.WireCPerMM != base.WireCPerMM {
			t.Errorf("%v: wire RC (%v,%v) changed from base (%v,%v)",
				f, p.WireRPerMM, p.WireCPerMM, base.WireRPerMM, base.WireCPerMM)
		}
	}
}

func TestForFeaturePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive feature size")
		}
	}()
	ForFeature(0)
}

// TestValidateRejectsNonFiniteFeature: NaN and +Inf compare false against
// "<= 0", so a sign check alone lets them through into every scaled delay.
func TestValidateRejectsNonFiniteFeature(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.18} {
		if FeatureSize(f).Valid() {
			t.Errorf("feature %v accepted", f)
		}
	}
	for _, f := range append(Generations(), Micron080) {
		if !f.Valid() {
			t.Errorf("feature %v rejected", f)
		}
	}
}

// TestFeatureSizeRange: Valid accepts exactly [MinFeature, MaxFeature].
// Outside it the scaling model runs away: at 1e-300 microns wiredelay sized
// a repeater 1e150x, and at 1e-12 its repeater scan did not finish.
func TestFeatureSizeRange(t *testing.T) {
	for _, tc := range []struct {
		f    float64
		want bool
	}{
		{0.01, true},
		{0.05, true},
		{0.12, true},
		{0.80, true},
		{1.55, true},
		{2, true},
		{0.0099, false},
		{2.0001, false},
		{1e-12, false},
		{1e-300, false},
		{1e300, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{0, false},
		{-0.18, false},
	} {
		f := FeatureSize(tc.f)
		if got := f.Valid(); got != tc.want {
			t.Errorf("Valid(%v) = %v, want %v", tc.f, got, tc.want)
		}
		err := CheckFeature("x", f)
		if (err == nil) != tc.want {
			t.Errorf("CheckFeature(%v) = %v, want valid=%v", tc.f, err, tc.want)
		}
		if err != nil && !strings.Contains(err.Error(), "outside [0.01, 2] microns") {
			t.Errorf("CheckFeature(%v) = %q, want the accepted range named", tc.f, err)
		}
	}
}

func TestWireTauPositiveAndConstant(t *testing.T) {
	var last float64
	for i, f := range Generations() {
		tau := ForFeature(f).WireTauPerMM2()
		if tau <= 0 {
			t.Fatalf("%v: non-positive tau %v", f, tau)
		}
		if i > 0 && math.Abs(tau-last) > 1e-15 {
			t.Errorf("%v: tau %v differs from previous %v (wire RC should not scale)", f, tau, last)
		}
		last = tau
	}
}

func TestBitCellSideShrinksWithFeature(t *testing.T) {
	prev := math.Inf(1)
	for _, f := range Generations() { // descending feature size
		side := ForFeature(f).BitCellSide()
		if side <= 0 {
			t.Fatalf("%v: non-positive cell side", f)
		}
		if side >= prev {
			t.Errorf("%v: cell side %v not smaller than previous %v", f, side, prev)
		}
		prev = side
	}
}

// TestSortedFeaturesDescending: Generations lists the paper's feature sizes
// largest first, the order every figure legend uses.
func TestSortedFeaturesDescending(t *testing.T) {
	gs := Generations()
	if len(gs) != 3 || gs[0] != Micron025 || gs[1] != Micron018 || gs[2] != Micron012 {
		t.Errorf("got %v, want [0.25u 0.18u 0.12u]", gs)
	}
}

func TestScalingMonotonicProperty(t *testing.T) {
	// Property: for any positive feature size pair f1 < f2, every
	// device-limited parameter at f1 is strictly smaller.
	f := func(a, b uint8) bool {
		f1 := FeatureSize(0.05 + float64(a%200)*0.005)
		f2 := f1 + FeatureSize(0.005+float64(b%100)*0.005)
		p1, p2 := ForFeature(f1), ForFeature(f2)
		return p1.BufferDelay < p2.BufferDelay &&
			p1.BufferC < p2.BufferC &&
			p1.GateDelayFO4 < p2.GateDelayFO4 &&
			p1.BitCellSide() < p2.BitCellSide()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	if got := Micron018.String(); got != "0.18u" {
		t.Errorf("String() = %q", got)
	}
}

package wire

import (
	"math"
	"math/rand/v2"
	"testing"

	"capsim/internal/tech"
)

// The closed-form oracle for the repeater search. It shares no code with
// the engine: the totals are recomputed from the per-millimetre parameters,
// and the optimum comes from the algebra, not from a scan.
//
// Expanding BufferedDelay's per-stage sum over k stages, with
// Rw = r_w·L, Cw = c_w·L + Cl (Line's load is distributed, so it is part of
// the wire capacitance) and repeaters upsized by h (so R0/h · h·C0 = R0·C0):
//
//	T(k) = A·k + B/k + C,  A = 0.7·R0·C0 + t_int,  B = 0.4·Rw·Cw,
//	                       C = 0.7·(R0/h)·Cw + 0.7·Rw·h·C0
//
// T is convex in k with its real minimum at k* = sqrt(B/A), so the best
// integer count is ⌊k*⌋ or ⌈k*⌉ (at least 1), the smaller on a tie.
// Bakoglu's sizing is h = sqrt(R0·Cw/(Rw·C0)), floored at 1 (a minimum
// repeater).
//
// A tie is B/A = ⌊k*⌋·⌈k*⌉, where T(⌊k*⌋) and T(⌈k*⌉) agree in real
// arithmetic; on float inputs they agree to within rounding, and the
// engine's scan (which keeps the first strictly smaller delay) picks
// whichever rounding favours. The oracle requires the closed-form count
// wherever the two delays differ by more than tieRel, and reports with
// t.Log each tie the engine breaks towards the larger count.

// tieRel is the relative delay gap below which two candidate counts tie:
// T is a sum of a few products of float64 inputs, so rounding moves it by a
// few ulps (about 1e-16 each), far below this bound, and counts whose
// delays agree to twelve digits are equally good for any rendered figure.
const tieRel = 1e-12

// closedForm returns the candidate repeater counts lo ≤ hi for a line of
// lengthMM with loadPF of distributed load at feature f, the best of them
// (lo on a tie), whether they tie, and the optimal repeater size.
func closedForm(f tech.FeatureSize, lengthMM, loadPF float64) (lo, hi, k int, tie bool, h float64) {
	s := float64(f) / 0.8 // device scaling from the 0.80 µm anchor
	r0, c0, tInt := 1000.0, 0.100*s, 0.08*s
	rw, cw := 300.0*lengthMM, 0.25*lengthMM+loadPF
	a := 0.7*r0*c0*1e-3 + tInt // ns per stage
	b := 0.4 * rw * cw * 1e-3  // ns·stages
	kStar := math.Sqrt(b / a)
	lo = max(1, int(math.Floor(kStar)))
	hi = max(1, int(math.Ceil(kStar)))
	tLo, tHi := a*float64(lo)+b/float64(lo), a*float64(hi)+b/float64(hi)
	k, tie = lo, hi != lo && math.Abs(tLo-tHi) <= tieRel*tLo
	if !tie && tHi < tLo {
		k = hi
	}
	return lo, hi, k, tie, max(1, math.Sqrt(r0/c0*cw/rw))
}

func TestRepeaterClosedForm(t *testing.T) {
	features := []tech.FeatureSize{tech.MinFeature, 0.035, 0.07, 0.12, 0.18, 0.25, 0.35, 0.5, 0.8, 1.2, tech.MaxFeature}
	lengths := []float64{0.01, 0.05, 0.1, 0.2, 0.5, 1, 2, 3, 5, 10, 20, 50, MaxLengthMM}
	loads := []float64{0, 0.01, 0.05, 0.2, 1, 3, 10, 50, 200, MaxLoadPF}
	checked, mismatches, ties, largerOnTie := 0, 0, 0, 0
	check := func(f tech.FeatureSize, lengthMM, loadPF float64) {
		t.Helper()
		p := tech.ForFeature(f)
		l := Line{LengthMM: lengthMM, LoadC: loadPF}
		lo, hi, wantK, tie, wantH := closedForm(f, lengthMM, loadPF)
		gotK, gotH := OptimalRepeaterCount(l, p), OptimalRepeaterSize(l, p)
		checked++
		if tie {
			ties++
		}
		switch {
		case tie && gotK == hi:
			largerOnTie++
			t.Logf("tie at f=%v µm L=%v mm Cl=%v pF: T(%d) = T(%d), engine picks %d",
				float64(f), lengthMM, loadPF, lo, hi, gotK)
		case gotK != wantK || math.Abs(gotH-wantH) > 4e-16*wantH:
			mismatches++
			if mismatches <= 10 {
				t.Errorf("f=%v µm L=%v mm Cl=%v pF: engine k=%d h=%.17g, closed form k=%d h=%.17g",
					float64(f), lengthMM, loadPF, gotK, gotH, wantK, wantH)
			}
		}
	}
	for _, f := range features {
		for _, lengthMM := range lengths {
			for _, loadPF := range loads {
				check(f, lengthMM, loadPF)
			}
		}
	}
	for _, seed := range []uint64{1998, 1} {
		r := rand.New(rand.NewPCG(seed, 15))
		for range 10_000 {
			// Log-uniform over the valid feature, length and load ranges.
			f := tech.FeatureSize(float64(tech.MinFeature) * math.Pow(float64(tech.MaxFeature/tech.MinFeature), r.Float64()))
			lengthMM := MaxLengthMM * math.Pow(1e-4, r.Float64())
			loadPF := 0.0
			if r.IntN(4) > 0 {
				loadPF = MaxLoadPF * math.Pow(1e-6, r.Float64())
			}
			check(f, lengthMM, loadPF)
		}
	}
	if mismatches > 0 {
		t.Errorf("%d of %d lines differ from the closed form", mismatches, checked)
	}
	t.Logf("%d lines, %d ties, %d broken towards the larger count", checked, ties, largerOnTie)
}

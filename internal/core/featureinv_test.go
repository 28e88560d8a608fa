package core

import (
	"math"
	"testing"

	"capsim/internal/tech"
	"capsim/internal/workload"
)

// TestQueueFeatureInvariance is a model oracle for the queue side. The issue
// engine counts cycles without knowing the process, and the queue's cycle
// time scales every delay term with the feature size, so ProfileQueueTPI at
// any feature is its 0.18 µm result times one factor: the same for every
// application and queue size, equal to the ratio of the cycle times. The
// test checks that at 0.25 and 0.12 µm for every queue application at seeds
// 1998 and 1, to within float rounding.
func TestQueueFeatureInvariance(t *testing.T) {
	const instrs = 20_000
	const ulps = 8 // each ratio is three rounded operations away from the factor
	sizes := PaperQueueSizes()
	for _, f := range []tech.FeatureSize{tech.Micron025, tech.Micron012} {
		factor := QueueCycleNS(sizes[0], tech.ForFeature(f)) / QueueCycleNS(sizes[0], tech.ForFeature(tech.Micron018))
		worst := 0.0
		for _, seed := range []uint64{1998, 1} {
			for _, b := range workload.QueueApps() {
				base, err := ProfileQueueTPI(b, seed, sizes, instrs, tech.Micron018)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ProfileQueueTPI(b, seed, sizes, instrs, f)
				if err != nil {
					t.Fatal(err)
				}
				for i, w := range sizes {
					dev := math.Abs(got[i]/base[i]/factor - 1)
					worst = math.Max(worst, dev)
					if dev > ulps*0x1p-52 {
						t.Errorf("%s seed %d, %d entries at %v: TPI ratio %.17g, factor %.17g",
							b.Name, seed, w, f, got[i]/base[i], factor)
					}
				}
			}
		}
		t.Logf("%v: factor %.17g, worst relative deviation %.3g", f, factor, worst)
	}
}

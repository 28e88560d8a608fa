package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"capsim/internal/metrics"
)

// fmtSnapshotNote is snapshotNote's fmt form, the oracle for its appended
// one.
func fmtSnapshotNote(label, nameA, nameB string, lo, hi int64, a, b []float64) string {
	var sumA, sumB float64
	flips, prev := 0, 0
	for i := lo; i < hi && i < int64(len(a)); i++ {
		sumA += a[i]
		sumB += b[i]
		cur := 1
		if a[i] <= b[i] {
			cur = -1
		}
		if prev != 0 && cur != prev {
			flips++
		}
		prev = cur
	}
	n := float64(hi - lo)
	avgA, avgB := sumA/n, sumB/n
	winner, margin := nameA, metrics.Reduction(avgB, avgA)
	if avgB < avgA {
		winner, margin = nameB, metrics.Reduction(avgA, avgB)
	}
	return fmt.Sprintf("%s: %s wins by %.1f%% on average (%s=%.4f %s=%.4f ns); best-config flips %d times",
		label, winner, 100*margin, nameA, avgA, nameB, avgB, flips)
}

func TestSnapshotNoteMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewPCG(1998, 12))
	for range 2000 {
		n := r.IntN(40)
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = r.Float64() * math.Pow10(r.IntN(6)-2)
			b[i] = a[i] * (0.5 + r.Float64())
		}
		lo := int64(r.IntN(n + 1))
		hi := lo + int64(r.IntN(n+1-int(lo)))
		got := snapshotNote("snapshot (a)", "64", "128", lo, hi, a, b)
		if want := fmtSnapshotNote("snapshot (a)", "64", "128", lo, hi, a, b); got != want {
			t.Fatalf("lo %d hi %d:\n got %q\nwant %q", lo, hi, got, want)
		}
	}
}

// BenchmarkRender renders every Result of a small-budget registry; the
// rows are computed once, outside the timer. ns/B is the time per rendered
// byte.
func BenchmarkRender(b *testing.B) {
	cfg := studyCacheTestConfig()
	var results []Result
	for _, id := range IDs() {
		res, err := Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, res)
	}
	bytes := 0
	b.ResetTimer()
	for range b.N {
		for _, res := range results {
			bytes += len(res.Render())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(bytes), "ns/B")
	b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
}

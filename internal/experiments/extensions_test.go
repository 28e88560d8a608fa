package experiments

import (
	"testing"

	"capsim/internal/bpred"
	"capsim/internal/tlb"
	"capsim/internal/workload"
)

// TestExtensionRowsMatchPerCell: the lockstep ablation-tlb and
// ablation-bpred rows equal one independent run per cell, each with its own
// freshly generated input, at two seeds (the goldens pin seed 1998 only).
// A TLB cell is one scalar tlb.TLB on a live address generator; a predictor
// cell is a one-size bpred.Multi on its own branch generator. Each engine
// is held to its scan-only or scalar reference in its own package
// (TestLookupMatchesScan, FuzzTLB, TestMultiMatchesScalar); this test holds
// the row assembly — the shared cursor and stream, the per-size indexing —
// to the per-cell runs.
func TestExtensionRowsMatchPerCell(t *testing.T) {
	const warm, refs = 3_000, 15_000
	tp := tlb.DefaultParams()
	bp := bpred.DefaultParams()
	for _, seed := range []uint64{1998, 1} {
		for _, app := range []string{"gcc", "vortex", "stereo", "applu", "appcg"} {
			b := workload.MustByName(app)
			for _, backup := range []bool{false, true} {
				row, err := tlbModeRow(tp, b, seed, warm, refs, backup)
				if err != nil {
					t.Fatal(err)
				}
				for g := 1; g <= tp.Groups; g++ {
					var tb *tlb.TLB
					if backup {
						tb, err = tlb.New(tp, g)
					} else {
						tb, err = tlb.NewWithoutBackup(tp, g)
					}
					if err != nil {
						t.Fatal(err)
					}
					gen := workload.NewAddressTrace(b, seed)
					for i := 0; i < warm; i++ {
						tb.Lookup(gen.Next().Addr)
					}
					tb.ResetStats()
					for i := 0; i < refs; i++ {
						tb.Lookup(gen.Next().Addr)
					}
					if want := tlb.Evaluate(tp, g, tb.Stats()); row[g-1] != want {
						t.Errorf("seed %d %s backup=%v primary %d: row %v, per-cell %v",
							seed, app, backup, g, row[g-1], want)
					}
				}
			}
		}
		for _, static := range []int{200, 800, 1600, 3200} {
			row, err := bpredPopRow(bp, seed, static)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range bp.Sizes() {
				m, err := bpred.NewMulti(bp, []int{n})
				if err != nil {
					t.Fatal(err)
				}
				g := bpred.NewBranchGen(seed, static, 0.3)
				for j := 0; j < bpredWarm; j++ {
					m.Predict(g.Next())
				}
				m.ResetStats()
				for j := 0; j < bpredMeasure; j++ {
					m.Predict(g.Next())
				}
				if want := bpred.Evaluate(bp, n, m.Stats()[0]); row[i] != want {
					t.Errorf("seed %d static %d size %d: row %v, per-cell %v", seed, static, n, row[i], want)
				}
			}
		}
	}
}

// BenchmarkExtensionRows times one ablation-tlb row per application and
// mode and one ablation-bpred row per population at the bench budgets. A
// TLB row generates its references as it reads them, so its time includes
// reference generation as well as the TLB kernel.
func BenchmarkExtensionRows(b *testing.B) {
	const warm, refs = 50_000, 200_000
	tp, bp := tlb.DefaultParams(), bpred.DefaultParams()
	apps := []string{"gcc", "vortex", "stereo", "applu", "appcg"}
	b.Run("tlb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, app := range apps {
				for _, backup := range []bool{false, true} {
					if _, err := tlbModeRow(tp, workload.MustByName(app), 1998, warm, refs, backup); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("bpred", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, static := range []int{200, 800, 1600, 3200} {
				if _, err := bpredPopRow(bp, 1998, static); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

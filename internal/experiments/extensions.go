package experiments

import (
	"context"
	"fmt"

	"capsim/internal/bpred"
	"capsim/internal/metrics"
	"capsim/internal/sweep"
	"capsim/internal/tlb"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

func init() {
	register("ablation-tlb", "Adaptive TLB primary/backup sizing (Sections 4.2 and 7 extension)", ablationTLB)
	register("ablation-bpred", "Adaptive branch-predictor table sizing (Section 7 extension)", ablationBpred)
}

// ablationTLB evaluates the paper's Section 4.2 backup strategy: instead of
// hard-disabling the TLB groups beyond the single-cycle primary section,
// keep them as a two-cycle backup. Without the backup, shrinking the primary
// shrinks the whole TLB and large-footprint applications pay page walks;
// with it, every configuration retains full capacity and the fast small
// primary is nearly always the right choice.
func ablationTLB(ctx context.Context, cfg Config) (Result, error) {
	p := tlb.DefaultParams()
	p.Feature = cfg.Feature
	t := metrics.Table{
		ID:    "ablation-tlb",
		Title: "Average translation time (ns): hard-disabled vs backup section",
		Columns: []string{"benchmark", "no-backup best", "no-backup config",
			"backup best", "backup config", "backup advantage"},
	}
	apps := []string{"gcc", "vortex", "stereo", "applu", "appcg"}
	// Every (application, mode, group count) cell replays the application's
	// reference stream from the master seed through a private cursor over the
	// shared materialized store (trace.RefsFor) and shares no mutable
	// state with its neighbours: fan the whole application x (2 modes x
	// Groups) grid across the sweep pool and reduce each row to its per-mode
	// best serially (the reduction scans groups in ascending order, so the
	// first-strictly-smaller tie-break matches the old serial loop).
	grid, err := sweep.GridCtx(ctx, len(apps), 2*p.Groups, func(a, j int) (float64, error) {
		b, err := workload.ByName(apps[a])
		if err != nil {
			return 0, err
		}
		g, backup := j%p.Groups+1, j >= p.Groups
		return studyRow(ctx, "tlb", func() (float64, error) {
			tr := trace.RefsFor(b, cfg.Seed).Cursor()
			var tb *tlb.TLB
			var err error
			if backup {
				tb, err = tlb.New(p, g)
			} else {
				tb, err = tlb.NewWithoutBackup(p, g)
			}
			if err != nil {
				return 0, err
			}
			for i := int64(0); i < cfg.CacheWarmRefs; i++ {
				tb.Lookup(tr.Next().Addr)
			}
			tb.ResetStats()
			for i := int64(0); i < cfg.CacheRefs; i++ {
				tb.Lookup(tr.Next().Addr)
			}
			return tlb.Evaluate(p, g, tb.Stats()), nil
		}, b, cfg.Seed, cfg.CacheWarmRefs, cfg.CacheRefs, p, backup, g)
	})
	if err != nil {
		return Result{}, err
	}
	for a, name := range apps {
		best := func(backup bool) (int, float64) {
			off := 0
			if backup {
				off = p.Groups
			}
			bg, bt := 0, 0.0
			for g := 1; g <= p.Groups; g++ {
				if v := grid[a][off+g-1]; bg == 0 || v < bt {
					bg, bt = g, v
				}
			}
			return bg, bt
		}
		ng, nt := best(false)
		bg, bt := best(true)
		t.Rows = append(t.Rows, []string{
			name, metrics.F(nt), fmt.Sprintf("%d entries", ng*p.GroupEntries),
			metrics.F(bt), fmt.Sprintf("%d+%d entries", bg*p.GroupEntries, (p.Groups-bg)*p.GroupEntries),
			metrics.Pct(metrics.Reduction(nt, bt)),
		})
	}
	return Result{
		ID: "ablation-tlb", Title: t.Title, Tables: []metrics.Table{t},
		Notes: []string{"backup section: evicted translations fall to a 2-cycle section instead of being dropped (paper Section 4.2)"},
	}, nil
}

// ablationBpred sizes the adaptive gshare table under varying aliasing
// pressure (static branch population standing in for application size).
func ablationBpred(ctx context.Context, cfg Config) (Result, error) {
	p := bpred.DefaultParams()
	p.Feature = cfg.Feature
	sizes := p.Sizes()
	t := metrics.Table{
		ID:      "ablation-bpred",
		Title:   "Average per-branch time (ns) by active table size",
		Columns: append([]string{"static branches"}, append(sizeLabels(sizes), "best")...),
	}
	// Each (static population, table size) cell owns its predictor and
	// branch generator: sweep the grid and assemble rows by index.
	statics := []int{200, 800, 1600, 3200}
	grid, err := sweep.GridCtx(ctx, len(statics), len(sizes), func(s, i int) (float64, error) {
		return studyRow(ctx, "bpred", func() (float64, error) {
			pr := bpred.MustNew(p, sizes[i])
			g := bpred.NewBranchGen(cfg.Seed, statics[s], 0.3)
			const warm, measure = 120_000, 200_000
			for j := 0; j < warm; j++ {
				pc, taken := g.Next()
				pr.Predict(pc, taken)
			}
			pr.ResetStats()
			for j := 0; j < measure; j++ {
				pc, taken := g.Next()
				pr.Predict(pc, taken)
			}
			return bpred.Evaluate(p, sizes[i], pr.Stats()), nil
		}, cfg.Seed, p, sizes[i], statics[s])
	})
	if err != nil {
		return Result{}, err
	}
	for s, static := range statics {
		row := []string{fmt.Sprintf("%d", static)}
		best, bestT := 0, 0.0
		for i, n := range sizes {
			v := grid[s][i]
			row = append(row, metrics.F(v))
			if i == 0 || v < bestT {
				best, bestT = n, v
			}
		}
		row = append(row, fmt.Sprintf("%d", best))
		t.Rows = append(t.Rows, row)
	}
	return Result{
		ID: "ablation-bpred", Title: t.Title, Tables: []metrics.Table{t},
		Notes: []string{"moderate aliasing pays for a larger, slower table; tiny programs and hopelessly aliased ones both favour the fast small table"},
	}, nil
}

func sizeLabels(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, n := range sizes {
		out[i] = fmt.Sprintf("%dK", n/1024)
	}
	return out
}

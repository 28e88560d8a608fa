package experiments

import (
	"context"
	"fmt"

	"capsim/internal/bpred"
	"capsim/internal/core"
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
	// One row per (application, mode), every primary size in lockstep
	// (tlbModeRow). The rows share no mutable state, so the application x
	// mode grid fans across the sweep pool; each row is reduced to its best
	// primary serially (ascending groups, first strictly smaller wins).
	grid, err := sweep.GridCtx(ctx, len(apps), 2, func(a, mode int) ([]float64, error) {
		b, err := workload.ByName(apps[a])
		if err != nil {
			return nil, err
		}
		backup := mode == 1
		return studyRow(ctx, "tlb-mode", func() ([]float64, error) {
			return tlbModeRow(p, b, cfg.Seed, cfg.CacheWarmRefs, cfg.CacheRefs, backup)
		}, b, cfg.Seed, cfg.CacheWarmRefs, cfg.CacheRefs, p, backup)
	})
	if err != nil {
		return Result{}, err
	}
	for a, name := range apps {
		best := func(mode int) (int, float64) {
			g := core.SelectBestIndex(grid[a][mode])
			return g + 1, grid[a][mode][g]
		}
		ng, nt := best(0)
		bg, bt := best(1)
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
	// One row per static population, every table size in one pass
	// (bpredPopRow). The rows are independent: sweep them and assemble by
	// index.
	statics := []int{200, 800, 1600, 3200}
	rows, err := sweep.RunCtx(ctx, len(statics), func(s int) ([]float64, error) {
		return studyRow(ctx, "bpred-pop", func() ([]float64, error) {
			return bpredPopRow(p, cfg.Seed, statics[s])
		}, cfg.Seed, p, statics[s])
	})
	if err != nil {
		return Result{}, err
	}
	for s, static := range statics {
		row := []string{fmt.Sprintf("%d", static)}
		for _, v := range rows[s] {
			row = append(row, metrics.F(v))
		}
		row = append(row, fmt.Sprintf("%d", sizes[core.SelectBestIndex(rows[s])]))
		t.Rows = append(t.Rows, row)
	}
	return Result{
		ID: "ablation-bpred", Title: t.Title, Tables: []metrics.Table{t},
		Notes: []string{"moderate aliasing pays for a larger, slower table; tiny programs and hopelessly aliased ones both favour the fast small table"},
	}, nil
}

// tlbModeRow returns the average translation time of every primary size,
// indexed by groups-1, for one application and mode. The sizes step in
// lockstep over one cursor on the application's reference stream
// (trace.RefsFor), each TLB exactly as if it ran alone.
func tlbModeRow(p tlb.Params, b workload.Benchmark, seed uint64, warm, refs int64, backup bool) ([]float64, error) {
	tbs := make([]*tlb.TLB, p.Groups)
	for g := 1; g <= p.Groups; g++ {
		var err error
		if backup {
			tbs[g-1], err = tlb.New(p, g)
		} else {
			tbs[g-1], err = tlb.NewWithoutBackup(p, g)
		}
		if err != nil {
			return nil, err
		}
	}
	tr := trace.RefsFor(b, seed).Cursor()
	lookup := func(n int64) {
		for i := int64(0); i < n; i++ {
			addr := tr.Next().Addr
			for _, tb := range tbs {
				tb.Lookup(addr)
			}
		}
	}
	lookup(warm)
	for _, tb := range tbs {
		tb.ResetStats()
	}
	lookup(refs)
	out := make([]float64, p.Groups)
	for g, tb := range tbs {
		out[g] = tlb.Evaluate(p, g+1, tb.Stats())
	}
	return out, nil
}

// bpredWarm and bpredMeasure are the branches each ablation-bpred row warms
// its tables with and then measures.
const bpredWarm, bpredMeasure = 120_000, 200_000

// bpredPopRow returns the average per-branch time of every active size, in
// p.Sizes() order, for one static population. Its branch stream is
// generated once and drives every size (bpred.Multi), each exactly as if it
// ran alone.
func bpredPopRow(p bpred.Params, seed uint64, static int) ([]float64, error) {
	sizes := p.Sizes()
	m, err := bpred.NewMulti(p, sizes)
	if err != nil {
		return nil, err
	}
	g := bpred.NewBranchGen(seed, static, 0.3)
	for j := 0; j < bpredWarm; j++ {
		m.Predict(g.Next())
	}
	m.ResetStats()
	for j := 0; j < bpredMeasure; j++ {
		m.Predict(g.Next())
	}
	out := make([]float64, len(sizes))
	for i, st := range m.Stats() {
		out[i] = bpred.Evaluate(p, sizes[i], st)
	}
	return out, nil
}

func sizeLabels(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, n := range sizes {
		out[i] = fmt.Sprintf("%dK", n/1024)
	}
	return out
}

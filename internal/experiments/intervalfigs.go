package experiments

import (
	"context"
	"fmt"

	"capsim/internal/core"
	"capsim/internal/metrics"
	"capsim/internal/workload"
)

func init() {
	register("fig12", "turb3d interval snapshots, 64- vs 128-entry queue (Figure 12)", fig12)
	register("fig13", "vortex interval snapshots, 16- vs 64-entry queue (Figure 13)", fig13)
}

// intervalTraces runs the fixed queue configurations interval-by-interval
// over the application's stream and returns per-configuration, per-interval
// TPI for intervals [0, n) — one shared-stream pass for the whole family
// (see core.ProfileQueueTraces). The whole family pass is one study row.
func intervalTraces(ctx context.Context, cfg Config, app string, entries []int, n int64) ([][]float64, error) {
	b, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	return studyRow(ctx, "qtrace", func() ([][]float64, error) {
		return core.ProfileQueueTraces(ctx, b, cfg.Seed, entries, n, cfg.IntervalInstrs, cfg.Feature)
	}, b, cfg.Seed, entries, n, cfg.IntervalInstrs, cfg.Feature)
}

// snapshotFigure builds one snapshot panel comparing two configurations over
// the interval range [lo, hi).
func snapshotFigure(id, title string, lo, hi int64, nameA, nameB string, a, b []float64) metrics.Figure {
	var xs, ya, yb []float64
	for i := lo; i < hi && i < int64(len(a)); i++ {
		xs = append(xs, float64(i))
		ya = append(ya, a[i])
		yb = append(yb, b[i])
	}
	return metrics.Figure{
		ID:     id,
		Title:  title,
		XLabel: "interval (of IntervalInstrs instructions)",
		YLabel: "TPI (ns)",
		Series: []metrics.Series{
			{Name: nameA, X: xs, Y: ya},
			{Name: nameB, X: xs, Y: yb},
		},
	}
}

// snapshotNote summarizes which configuration wins a snapshot and by how
// much, plus how often the winner flips — the quantities the paper's
// Section 6 prose reads off the plots.
func snapshotNote(label, nameA, nameB string, lo, hi int64, a, b []float64) string {
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

func fig12(ctx context.Context, cfg Config) (Result, error) {
	// turb3d alternates 64- and 128-entry-favouring phases in blocks of
	// PeriodInstrs; snapshot (a) sits inside the first (base) block,
	// snapshot (b) inside the second (alt) block.
	b, err := workload.ByName("turb3d")
	if err != nil {
		return Result{}, err
	}
	block := b.ILP.PeriodInstrs / cfg.IntervalInstrs // intervals per phase block
	loA, hiA := block/5, block/5+200
	loB, hiB := block+block/5, block+block/5+200
	total := hiB + 10

	traces, err := intervalTraces(ctx, cfg, "turb3d", []int{64, 128}, total)
	if err != nil {
		return Result{}, err
	}
	t64, t128 := traces[0], traces[1]
	figA := snapshotFigure("fig12a", "turb3d snapshot (a): 64-entry phase", loA, hiA, "64 entries", "128 entries", t64, t128)
	figB := snapshotFigure("fig12b", "turb3d snapshot (b): 128-entry phase", loB, hiB, "64 entries", "128 entries", t64, t128)
	return Result{
		ID:      "fig12",
		Title:   "Two snapshots of turb3d's execution (64 vs 128 entries)",
		Figures: []metrics.Figure{figA, figB},
		Notes: []string{
			snapshotNote("snapshot (a)", "64", "128", loA, hiA, t64, t128),
			snapshotNote("snapshot (b)", "64", "128", loB, hiB, t64, t128),
		},
	}, nil
}

func fig13(ctx context.Context, cfg Config) (Result, error) {
	// vortex alternates regular stretches (the best configuration flips
	// about every 15 intervals) with irregular stretches; snapshot (a)
	// sits in the regular super-block, snapshot (b) in the irregular one.
	b, err := workload.ByName("vortex")
	if err != nil {
		return Result{}, err
	}
	super := b.ILP.SuperPeriodInstrs / cfg.IntervalInstrs
	loA, hiA := super/4, super/4+150
	loB, hiB := super+super/6, super+super/6+300
	total := hiB + 10

	traces, err := intervalTraces(ctx, cfg, "vortex", []int{16, 64}, total)
	if err != nil {
		return Result{}, err
	}
	t16, t64 := traces[0], traces[1]
	figA := snapshotFigure("fig13a", "vortex snapshot (a): regular alternation", loA, hiA, "16 entries", "64 entries", t16, t64)
	figB := snapshotFigure("fig13b", "vortex snapshot (b): irregular region", loB, hiB, "16 entries", "64 entries", t16, t64)
	return Result{
		ID:      "fig13",
		Title:   "Two snapshots of vortex's execution (16 vs 64 entries)",
		Figures: []metrics.Figure{figA, figB},
		Notes: []string{
			snapshotNote("snapshot (a)", "16", "64", loA, hiA, t16, t64),
			snapshotNote("snapshot (b)", "16", "64", loB, hiB, t16, t64),
		},
	}, nil
}

package experiments

import (
	"context"
	"fmt"

	"capsim/internal/core"
	"capsim/internal/metrics"
	"capsim/internal/sweep"
	"capsim/internal/workload"
)

func init() {
	register("fig10", "Average TPI vs instruction queue size per application (Figure 10)", fig10)
	register("fig11", "Average TPI: conventional vs process-level adaptive queue (Figure 11)", fig11)
}

// queueStudy is the shared profiling pass behind Figures 10-11.
type queueStudy struct {
	apps     []workload.Benchmark
	sizes    []int
	tpi      [][]float64 // by app index, dense by config index
	convBest int         // config index with smallest average TPI
}

// queueProfiles fans the applications' ProfileQueueTPI passes across the
// sweep pool, one study row each; within each, core.ProfileQueueTPI
// evaluates every window size in one ooo.MultiCore pass over the
// application's shared instruction stream. Results are collected by index,
// never by completion order, so output is byte-identical at any worker
// count.
func queueProfiles(ctx context.Context, cfg Config, apps []workload.Benchmark, sizes []int) ([][]float64, error) {
	return sweep.RunCtx(ctx, len(apps), func(a int) ([]float64, error) {
		b := apps[a]
		return studyRow(ctx, "queueprof", func() ([]float64, error) {
			return core.ProfileQueueTPI(b, cfg.Seed, sizes, cfg.QueueInstrs, cfg.Feature)
		}, b, cfg.Seed, sizes, cfg.QueueInstrs, cfg.Feature)
	})
}

// runQueueStudy profiles every application (22 for the paper's setup) at
// every queue size and picks the best conventional configuration; fig10 and
// fig11 share its rows.
func runQueueStudy(ctx context.Context, cfg Config) (*queueStudy, error) {
	s := &queueStudy{apps: workload.QueueApps(), sizes: core.PaperQueueSizes()}
	var err error
	if s.tpi, err = queueProfiles(ctx, cfg, s.apps, s.sizes); err != nil {
		return nil, err
	}
	bestI, bestAvg := -1, 0.0
	for i := range s.sizes {
		var sum float64
		for _, t := range s.tpi {
			sum += t[i]
		}
		avg := sum / float64(len(s.apps))
		if bestI < 0 || avg < bestAvg {
			bestI, bestAvg = i, avg
		}
	}
	s.convBest = bestI
	return s, nil
}

// fig10 renders per-application TPI vs queue size, split into the paper's
// integer (a) and floating-point (b) panels.
func fig10(ctx context.Context, cfg Config) (Result, error) {
	s, err := runQueueStudy(ctx, cfg)
	if err != nil {
		return Result{}, err
	}
	mk := func(id, title string, fp bool) metrics.Figure {
		fig := metrics.Figure{
			ID:     id,
			Title:  title,
			XLabel: "instruction queue size (entries)",
			YLabel: "Avg TPI (ns)",
		}
		for a, b := range s.apps {
			if b.FloatingPoint != fp {
				continue
			}
			var xs, ys []float64
			for i, w := range s.sizes {
				xs = append(xs, float64(w))
				ys = append(ys, s.tpi[a][i])
			}
			fig.Series = append(fig.Series, metrics.Series{Name: b.Name, X: xs, Y: ys})
		}
		return fig
	}
	return Result{
		ID:    "fig10",
		Title: "Variation of average TPI with instruction queue size",
		Figures: []metrics.Figure{
			mk("fig10a", "Integer benchmarks", false),
			mk("fig10b", "Floating-point benchmarks", true),
		},
		Notes: []string{fmt.Sprintf("best conventional configuration: %d entries", s.sizes[s.convBest])},
	}, nil
}

func fig11(ctx context.Context, cfg Config) (Result, error) {
	s, err := runQueueStudy(ctx, cfg)
	if err != nil {
		return Result{}, err
	}
	t := metrics.Table{
		ID:      "fig11",
		Title:   "Average TPI (ns): conventional vs process-level adaptive queue",
		Columns: []string{"benchmark", "best conventional", "process-level adaptive", "adaptive queue", "reduction"},
	}
	var convSum, adptSum float64
	for a, b := range s.apps {
		bestI := core.SelectBestIndex(s.tpi[a])
		conv := s.tpi[a][s.convBest]
		adpt := s.tpi[a][bestI]
		convSum += conv
		adptSum += adpt
		t.Rows = append(t.Rows, []string{
			b.Name, metrics.F(conv), metrics.F(adpt),
			fmt.Sprintf("%d entries", s.sizes[bestI]),
			metrics.Pct(metrics.Reduction(conv, adpt)),
		})
	}
	n := float64(len(s.apps))
	t.Rows = append(t.Rows, []string{
		"average", metrics.F(convSum / n), metrics.F(adptSum / n), "",
		metrics.Pct(metrics.Reduction(convSum/n, adptSum/n)),
	})
	return Result{
		ID: "fig11", Title: t.Title, Tables: []metrics.Table{t},
		Notes: []string{fmt.Sprintf("conventional baseline: %d entries", s.sizes[s.convBest])},
	}, nil
}

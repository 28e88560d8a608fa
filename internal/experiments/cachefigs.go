package experiments

import (
	"context"
	"fmt"

	"capsim/internal/cache"
	"capsim/internal/core"
	"capsim/internal/metrics"
	"capsim/internal/sweep"
	"capsim/internal/workload"
)

func init() {
	register("fig7", "Average TPI vs L1 Dcache size per application (Figure 7)", fig7)
	register("fig8", "Average TPImiss: conventional vs process-level adaptive (Figure 8)", fig8)
	register("fig9", "Average TPI: conventional vs process-level adaptive (Figure 9)", fig9)
}

// cacheStudy is the shared profiling pass behind Figures 7-9: per
// application, TPI and TPImiss at every boundary position. Tables are dense
// slices indexed by boundary k (slot 0 is +Inf padding; boundaries are
// 1-based).
type cacheStudy struct {
	apps []workload.Benchmark
	rows []cacheRow // by application index
	// convBest is the boundary whose workload-average TPI is smallest —
	// the paper's "best-performing conventional configuration".
	convBest int
}

// cacheRow is one application's cache-boundary profiling pass (dense by
// boundary k, slot 0 = +Inf padding). Exported fields for gob.
type cacheRow struct {
	TPI  []float64
	Miss []float64
}

// cacheProfiles fans the applications' ProfileCacheTPI passes across the
// sweep pool, one study row each; within each application the pass
// evaluates the whole boundary family over the shared materialized trace.
// Figures 7-9, ablation-power and the paper-design half of
// ablation-increment ask for equal rows, so in one process each pass runs
// once, and a study cache serves it to later processes. Results land at
// their slice index, so the output is byte-identical at any worker count.
func cacheProfiles(ctx context.Context, cfg Config, apps []workload.Benchmark, p cache.Params, maxB int) ([]cacheRow, error) {
	return sweep.RunCtx(ctx, len(apps), func(a int) (cacheRow, error) {
		b := apps[a]
		return studyRow(ctx, "cacheprof", func() (cacheRow, error) {
			tpi, miss, err := core.ProfileCacheTPI(b, cfg.Seed, p, maxB, cfg.CacheWarmRefs, cfg.CacheRefs)
			return cacheRow{TPI: tpi, Miss: miss}, err
		}, b, cfg.Seed, p, maxB, cfg.CacheWarmRefs, cfg.CacheRefs)
	})
}

// runCacheStudy profiles every application (21 for the paper's setup) at
// every boundary and picks the best conventional configuration.
func runCacheStudy(ctx context.Context, cfg Config) (*cacheStudy, error) {
	s := &cacheStudy{apps: workload.CacheApps()}
	nB := core.PaperMaxBoundary
	var err error
	if s.rows, err = cacheProfiles(ctx, cfg, s.apps, cfg.CacheParams, nB); err != nil {
		return nil, err
	}
	// Best conventional configuration: smallest workload-average TPI.
	bestK, bestAvg := 0, 0.0
	for k := 1; k <= nB; k++ {
		var sum float64
		for _, r := range s.rows {
			sum += r.TPI[k]
		}
		avg := sum / float64(len(s.apps))
		if bestK == 0 || avg < bestAvg {
			bestK, bestAvg = k, avg
		}
	}
	s.convBest = bestK
	return s, nil
}

// fig7 renders the per-application TPI-vs-L1-size curves, split into the
// paper's integer (a) and floating-point (b) panels.
func fig7(ctx context.Context, cfg Config) (Result, error) {
	s, err := runCacheStudy(ctx, cfg)
	if err != nil {
		return Result{}, err
	}
	mk := func(id, title string, fp bool) metrics.Figure {
		fig := metrics.Figure{
			ID:     id,
			Title:  title,
			XLabel: "L1 Dcache size (KB)",
			YLabel: "Avg TPI (ns)",
		}
		for a, b := range s.apps {
			if b.FloatingPoint != fp {
				continue
			}
			var xs, ys []float64
			for k := 1; k <= core.PaperMaxBoundary; k++ {
				xs = append(xs, float64(cfg.CacheParams.L1Bytes(k))/1024)
				ys = append(ys, s.rows[a].TPI[k])
			}
			fig.Series = append(fig.Series, metrics.Series{Name: b.Name, X: xs, Y: ys})
		}
		return fig
	}
	conv := cfg.CacheParams
	return Result{
		ID:    "fig7",
		Title: "Variation of average TPI with L1 Dcache size (fixed boundary)",
		Figures: []metrics.Figure{
			mk("fig7a", "Integer benchmarks", false),
			mk("fig7b", "Floating-point benchmarks", true),
		},
		Notes: []string{fmt.Sprintf("best conventional configuration: L1=%dKB %d-way (boundary k=%d)",
			conv.L1Bytes(s.convBest)/1024, conv.L1Assoc(s.convBest), s.convBest)},
	}, nil
}

// cacheCompareTable builds the Figure 8/9-style per-application comparison
// between the best conventional configuration and the process-level
// adaptive choice, using the selector to pick TPI or TPImiss.
func cacheCompareTable(cfg Config, s *cacheStudy, id, title string, pick func(r cacheRow) []float64) metrics.Table {
	t := metrics.Table{
		ID:      id,
		Title:   title,
		Columns: []string{"benchmark", "best conventional", "process-level adaptive", "adaptive boundary", "reduction"},
	}
	var convSum, adptSum float64
	for a, b := range s.apps {
		bestK := core.SelectBestIndex(s.rows[a].TPI) // adaptivity always optimizes overall TPI
		conv := pick(s.rows[a])[s.convBest]
		adpt := pick(s.rows[a])[bestK]
		convSum += conv
		adptSum += adpt
		t.Rows = append(t.Rows, []string{
			b.Name, metrics.F(conv), metrics.F(adpt),
			fmt.Sprintf("k=%d (%dKB)", bestK, cfg.CacheParams.L1Bytes(bestK)/1024),
			metrics.Pct(metrics.Reduction(conv, adpt)),
		})
	}
	n := float64(len(s.apps))
	t.Rows = append(t.Rows, []string{
		"average", metrics.F(convSum / n), metrics.F(adptSum / n), "",
		metrics.Pct(metrics.Reduction(convSum/n, adptSum/n)),
	})
	return t
}

func fig8(ctx context.Context, cfg Config) (Result, error) {
	s, err := runCacheStudy(ctx, cfg)
	if err != nil {
		return Result{}, err
	}
	t := cacheCompareTable(cfg, s, "fig8", "Average TPImiss (ns): conventional vs process-level adaptive",
		func(r cacheRow) []float64 { return r.Miss })
	return Result{
		ID: "fig8", Title: t.Title, Tables: []metrics.Table{t},
		Notes: []string{fmt.Sprintf("conventional baseline: boundary k=%d (L1=%dKB %d-way)",
			s.convBest, cfg.CacheParams.L1Bytes(s.convBest)/1024, cfg.CacheParams.L1Assoc(s.convBest))},
	}, nil
}

func fig9(ctx context.Context, cfg Config) (Result, error) {
	s, err := runCacheStudy(ctx, cfg)
	if err != nil {
		return Result{}, err
	}
	t := cacheCompareTable(cfg, s, "fig9", "Average TPI (ns): conventional vs process-level adaptive",
		func(r cacheRow) []float64 { return r.TPI })
	return Result{
		ID: "fig9", Title: t.Title, Tables: []metrics.Table{t},
		Notes: []string{fmt.Sprintf("conventional baseline: boundary k=%d (L1=%dKB %d-way)",
			s.convBest, cfg.CacheParams.L1Bytes(s.convBest)/1024, cfg.CacheParams.L1Assoc(s.convBest))},
	}, nil
}

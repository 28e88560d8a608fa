package experiments

import (
	"context"
	"fmt"
	"slices"

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
	register("fig10", "Average TPI vs instruction queue size per application (Figure 10)", fig10)
	register("fig11", "Average TPI: conventional vs process-level adaptive queue (Figure 11)", fig11)
}

// study is the paper's process-level scheme (Section 5.1) over one
// configuration axis: every application profiled at every configuration,
// the conventional baseline the one configuration with the smallest
// workload-average TPI, and each application free to pick its own best.
// Figures 7-9 are the cache study, 10-11 the queue study, and
// ablation-combined a study over the joint configurations.
type study struct {
	apps []workload.Benchmark
	tpi  [][]float64 // by application, dense by configuration
	miss [][]float64 // TPImiss like tpi (cache study only)
	conv int         // the conventional configuration

	axis   string    // the figure panels' X label
	x      []float64 // each configuration's place on the axis
	column string    // the comparison table's configuration column
	labels []string  // each configuration's name in that column

	// The conventional configuration as the figure panels' note and as the
	// comparison tables' note name it.
	figNote, tableNote string
}

// newStudy picks the conventional configuration of the tpi rows.
func newStudy(apps []workload.Benchmark, tpi [][]float64) *study {
	avg := make([]float64, len(tpi[0]))
	for i := range avg {
		var sum float64
		for _, row := range tpi {
			sum += row[i]
		}
		avg[i] = sum / float64(len(apps))
	}
	return &study{apps: apps, tpi: tpi, conv: core.SelectBestIndex(avg)}
}

// best is application a's process-level choice: its smallest-TPI
// configuration. Adaptivity always optimizes overall TPI, whichever value
// a table compares.
func (s *study) best(a int) int { return core.SelectBestIndex(s.tpi[a]) }

// figures renders per-application TPI along the axis, split into the
// paper's integer (a) and floating-point (b) panels. Every series is a copy:
// a caller that edits it cannot reach a memoized row.
func (s *study) figures(id, title string) Result {
	panel := func(sub, name string, fp bool) metrics.Figure {
		fig := metrics.Figure{ID: id + sub, Title: name, XLabel: s.axis, YLabel: "Avg TPI (ns)"}
		for a, b := range s.apps {
			if b.FloatingPoint == fp {
				fig.Series = append(fig.Series, metrics.Series{Name: b.Name, X: slices.Clone(s.x), Y: slices.Clone(s.tpi[a])})
			}
		}
		return fig
	}
	return Result{
		ID:    id,
		Title: title,
		Figures: []metrics.Figure{
			panel("a", "Integer benchmarks", false),
			panel("b", "Floating-point benchmarks", true),
		},
		Notes: []string{"best conventional configuration: " + s.figNote},
	}
}

// compare renders the per-application comparison of vals (TPI or TPImiss
// rows) at the conventional configuration and at each application's own
// best.
func (s *study) compare(id, title string, vals [][]float64) Result {
	rows := make([]compareRow, len(s.apps))
	for a, b := range s.apps {
		k := s.best(a)
		rows[a] = compareRow{b.Name, []float64{vals[a][s.conv], vals[a][k]}, s.labels[k]}
	}
	t := compareTable(id, title, []string{"benchmark", "best conventional", "process-level adaptive", s.column, "reduction"}, rows)
	return Result{ID: id, Title: title, Tables: []metrics.Table{t}, Notes: []string{"conventional baseline: " + s.tableNote}}
}

// compareRow is one application's line of a comparison table: its value
// under each strategy, conventional first, and the configuration the last
// strategy chose.
type compareRow struct {
	name   string
	vals   []float64
	config string
}

// compareTable renders a comparison table: each row's values, its config
// and the last strategy's reduction against the first, then the average
// row. columns names the benchmark, each strategy, the config and the
// reduction.
func compareTable(id, title string, columns []string, rows []compareRow) metrics.Table {
	t := metrics.Table{ID: id, Title: title, Columns: columns}
	sums := make([]float64, len(columns)-3)
	for _, r := range rows {
		line := []string{r.name}
		for i, v := range r.vals {
			sums[i] += v
			line = append(line, metrics.F(v))
		}
		t.Rows = append(t.Rows, append(line, r.config, metrics.Pct(metrics.Reduction(r.vals[0], r.vals[len(r.vals)-1]))))
	}
	n := float64(len(rows))
	avg := []string{"average"}
	for _, sum := range sums {
		avg = append(avg, metrics.F(sum/n))
	}
	t.Rows = append(t.Rows, append(avg, "", metrics.Pct(metrics.Reduction(sums[0]/n, sums[len(sums)-1]/n))))
	return t
}

// cacheRow is one application's cache-boundary profiling pass (dense by
// boundary k, slot 0 = +Inf padding). Its fields are exported because the
// study cache's row codec encodes only exported fields.
type cacheRow struct {
	TPI  []float64
	Miss []float64
}

// cacheProfiles fans the applications' ProfileCacheTPI passes across the
// sweep pool, one study row each; within each application the pass
// evaluates the whole boundary family in one pass over the reference stream.
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

// runCacheStudy is the study behind Figures 7-9: the 21 cache applications
// at every L1/L2 boundary k = 1..PaperMaxBoundary (configuration k-1).
func runCacheStudy(ctx context.Context, cfg Config) (*study, error) {
	apps := workload.CacheApps()
	rows, err := cacheProfiles(ctx, cfg, apps, cfg.CacheParams, core.PaperMaxBoundary)
	if err != nil {
		return nil, err
	}
	tpi, miss := make([][]float64, len(rows)), make([][]float64, len(rows))
	for a, r := range rows {
		tpi[a], miss[a] = r.TPI[1:], r.Miss[1:]
	}
	s := newStudy(apps, tpi)
	s.miss = miss
	s.axis, s.column = "L1 Dcache size (KB)", "adaptive boundary"
	p := cfg.CacheParams
	for k := 1; k <= core.PaperMaxBoundary; k++ {
		s.x = append(s.x, float64(p.L1Bytes(k))/1024)
		s.labels = append(s.labels, fmt.Sprintf("k=%d (%dKB)", k, p.L1Bytes(k)/1024))
	}
	k := s.conv + 1
	s.figNote = fmt.Sprintf("L1=%dKB %d-way (boundary k=%d)", p.L1Bytes(k)/1024, p.L1Assoc(k), k)
	s.tableNote = fmt.Sprintf("boundary k=%d (L1=%dKB %d-way)", k, p.L1Bytes(k)/1024, p.L1Assoc(k))
	return s, nil
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

// runQueueStudy is the study behind Figures 10-11: the 22 applications at
// every paper queue size.
func runQueueStudy(ctx context.Context, cfg Config) (*study, error) {
	apps, sizes := workload.QueueApps(), core.PaperQueueSizes()
	tpi, err := queueProfiles(ctx, cfg, apps, sizes)
	if err != nil {
		return nil, err
	}
	s := newStudy(apps, tpi)
	s.axis, s.column = "instruction queue size (entries)", "adaptive queue"
	for _, w := range sizes {
		s.x = append(s.x, float64(w))
		s.labels = append(s.labels, fmt.Sprintf("%d entries", w))
	}
	s.figNote, s.tableNote = s.labels[s.conv], s.labels[s.conv]
	return s, nil
}

// fig7 renders the per-application TPI-vs-L1-size curves.
func fig7(ctx context.Context, cfg Config) (Result, error) {
	s, err := runCacheStudy(ctx, cfg)
	if err != nil {
		return Result{}, err
	}
	return s.figures("fig7", "Variation of average TPI with L1 Dcache size (fixed boundary)"), nil
}

func fig8(ctx context.Context, cfg Config) (Result, error) {
	s, err := runCacheStudy(ctx, cfg)
	if err != nil {
		return Result{}, err
	}
	return s.compare("fig8", "Average TPImiss (ns): conventional vs process-level adaptive", s.miss), nil
}

func fig9(ctx context.Context, cfg Config) (Result, error) {
	s, err := runCacheStudy(ctx, cfg)
	if err != nil {
		return Result{}, err
	}
	return s.compare("fig9", "Average TPI (ns): conventional vs process-level adaptive", s.tpi), nil
}

// fig10 renders per-application TPI vs queue size.
func fig10(ctx context.Context, cfg Config) (Result, error) {
	s, err := runQueueStudy(ctx, cfg)
	if err != nil {
		return Result{}, err
	}
	return s.figures("fig10", "Variation of average TPI with instruction queue size"), nil
}

func fig11(ctx context.Context, cfg Config) (Result, error) {
	s, err := runQueueStudy(ctx, cfg)
	if err != nil {
		return Result{}, err
	}
	return s.compare("fig11", "Average TPI (ns): conventional vs process-level adaptive queue", s.tpi), nil
}

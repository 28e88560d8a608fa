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
	register("ablation-interval", "Interval-adaptive predictor vs process-level vs per-interval oracle (Section 6 extension)", ablationInterval)
	register("ablation-switch", "Clock-switch penalty sweep for the interval predictor", ablationSwitch)
	register("ablation-increment", "Cache increment granularity: 16x8KB 2-way vs 32x4KB direct-mapped (Section 5.2.1)", ablationIncrement)
	register("ablation-power", "Low-power mode: minimum structures at the slowest clock (Section 4.1)", ablationPower)
}

// intervalCandidates returns the two-configuration setup Section 6 studies
// for an application.
func intervalCandidates(app string) (sizes []int, err error) {
	switch app {
	case "turb3d":
		return []int{64, 128}, nil
	case "vortex":
		return []int{16, 64}, nil
	default:
		return nil, fmt.Errorf("experiments: no interval-study candidates for %s", app)
	}
}

// runIntervalPolicy runs one policy over the two candidate sizes
// (core.RunPolicyStudy) and returns the aggregate result. Each run is one
// study row, keyed on the policy's content — its type and every tunable — so
// a changed policy is a different row.
func runIntervalPolicy(ctx context.Context, cfg Config, app string, sizes []int, p core.Policy, intervals int64) (core.RunResult, error) {
	b, err := workload.ByName(app)
	if err != nil {
		return core.RunResult{}, err
	}
	return studyRow(ctx, "qpolicy", func() (core.RunResult, error) {
		return core.RunPolicyStudy(ctx, b, cfg.Seed, sizes, p, intervals, cfg.IntervalInstrs, cfg.PenaltyCycles, cfg.Feature)
	}, b, cfg.Seed, sizes, p, intervals, cfg.IntervalInstrs, cfg.PenaltyCycles, cfg.Feature)
}

// benchmarks returns the named applications' profiles.
func benchmarks(names []string) []workload.Benchmark {
	out := make([]workload.Benchmark, len(names))
	for i, n := range names {
		out[i] = workload.MustByName(n)
	}
	return out
}

// oracleTPI computes the per-interval oracle: the TPI of always running the
// better of the two configurations each interval, ignoring switch costs — a
// lower bound no realizable predictor can beat. Both traces come from one
// shared-stream family pass (see core.ProfileQueueTraces).
func oracleTPI(ctx context.Context, cfg Config, app string, sizes []int, intervals int64) (float64, error) {
	traces, err := intervalTraces(ctx, cfg, app, sizes, intervals)
	if err != nil {
		return 0, err
	}
	a, b := traces[0], traces[1]
	var sum float64
	for i := range a {
		if a[i] < b[i] {
			sum += a[i]
		} else {
			sum += b[i]
		}
	}
	return sum / float64(len(a)), nil
}

func ablationInterval(ctx context.Context, cfg Config) (Result, error) {
	const intervals = 1500
	t := metrics.Table{
		ID:      "ablation-interval",
		Title:   "TPI (ns) by configuration-management policy",
		Columns: []string{"benchmark", "configs", "best fixed", "interval-adaptive", "per-interval oracle", "switches", "adaptive vs fixed"},
	}
	apps := []string{"turb3d", "vortex"}
	type row struct {
		sizes     []int
		fixedBest float64
		adaptive  core.RunResult
		oracle    float64
	}
	// The per-application studies are independent; within one, the fixed
	// baselines, the adaptive run and the oracle are independent too. Fan
	// all of it out (nested sweeps are safe) and assemble rows in app order.
	rows, err := sweep.RunCtx(ctx, len(apps), func(ai int) (row, error) {
		app := apps[ai]
		sizes, err := intervalCandidates(app)
		if err != nil {
			return row{}, err
		}
		// Best fixed: run both configurations to completion, keep the
		// better (the process-level choice between the two).
		fixed, err := sweep.RunCtx(ctx, len(sizes), func(i int) (float64, error) {
			r, err := runIntervalPolicy(ctx, cfg, app, sizes, core.FixedPolicy{Config: i}, intervals)
			return r.TPI, err
		})
		if err != nil {
			return row{}, err
		}
		fixedBest := fixed[core.SelectBestIndex(fixed)]
		adaptive, err := runIntervalPolicy(ctx, cfg, app, sizes, &core.IntervalPolicy{Configs: []int{0, 1}}, intervals)
		if err != nil {
			return row{}, err
		}
		oracle, err := oracleTPI(ctx, cfg, app, sizes, intervals)
		if err != nil {
			return row{}, err
		}
		return row{sizes: sizes, fixedBest: fixedBest, adaptive: adaptive, oracle: oracle}, nil
	})
	if err != nil {
		return Result{}, err
	}
	for ai, r := range rows {
		t.Rows = append(t.Rows, []string{
			apps[ai], fmt.Sprintf("%v", r.sizes),
			metrics.F(r.fixedBest), metrics.F(r.adaptive.TPI), metrics.F(r.oracle),
			fmt.Sprintf("%d", r.adaptive.Switches),
			metrics.Pct(metrics.Reduction(r.fixedBest, r.adaptive.TPI)),
		})
	}
	return Result{
		ID: "ablation-interval", Title: t.Title, Tables: []metrics.Table{t},
		Notes: []string{"oracle ignores reconfiguration costs; the predictor pays drain + clock-switch penalties"},
	}, nil
}

func ablationSwitch(ctx context.Context, cfg Config) (Result, error) {
	const intervals = 1200
	sizes, err := intervalCandidates("vortex")
	if err != nil {
		return Result{}, err
	}
	fig := metrics.Figure{
		ID:     "ablation-switch",
		Title:  "vortex: interval-adaptive TPI vs clock-switch penalty",
		XLabel: "switch penalty (cycles)",
		YLabel: "TPI (ns)",
	}
	// Each penalty point is an independent simulation: sweep them in
	// parallel, collecting by penalty index.
	penalties := []int{0, 10, 20, 50, 100, 200}
	runs, err := sweep.RunCtx(ctx, len(penalties), func(i int) (core.RunResult, error) {
		c := cfg
		c.PenaltyCycles = penalties[i]
		return runIntervalPolicy(ctx, c, "vortex", sizes, &core.IntervalPolicy{Configs: []int{0, 1}}, intervals)
	})
	if err != nil {
		return Result{}, err
	}
	var xs, ys, sw []float64
	for i, r := range runs {
		xs = append(xs, float64(penalties[i]))
		ys = append(ys, r.TPI)
		sw = append(sw, float64(r.Switches))
	}
	fig.Series = []metrics.Series{
		{Name: "adaptive TPI", X: xs, Y: ys},
		{Name: "switches", X: xs, Y: sw},
	}
	return Result{
		ID: "ablation-switch", Title: fig.Title, Figures: []metrics.Figure{fig},
		Notes: []string{"the paper estimates tens of cycles to pause one clock and reliably start another"},
	}, nil
}

// ablationIncrement compares the paper's chosen 8KB 2-way increment design
// against the competing 4KB direct-mapped two-way-banked increment design it
// mentions rejecting in Section 5.2.1.
func ablationIncrement(ctx context.Context, cfg Config) (Result, error) {
	alt := cache.Params{
		Increments:     32,
		IncrementBytes: 4 * 1024,
		IncrementAssoc: 1,
		BlockBytes:     cfg.CacheParams.BlockBytes,
		Feature:        cfg.CacheParams.Feature,
	}
	apps := []string{"gcc", "stereo", "appcg", "swim"}
	t := metrics.Table{
		ID:      "ablation-increment",
		Title:   "Adaptive TPI (ns) by increment design",
		Columns: []string{"benchmark", "8KB 2-way x16 (paper)", "4KB 1-way x32 (alternative)", "difference"},
	}
	// The paper's 8KB 2-way design — the fig7-9 cache study's rows, reused
	// after fig7 in process or through a study cache — against the rejected
	// 4KB direct-mapped alternative (same 64 KB maximum L1: 16 increments
	// of 4 KB).
	benches := benchmarks(apps)
	paper, err := cacheProfiles(ctx, cfg, benches, cfg.CacheParams, core.PaperMaxBoundary)
	if err != nil {
		return Result{}, err
	}
	other, err := cacheProfiles(ctx, cfg, benches, alt, 16)
	if err != nil {
		return Result{}, err
	}
	best := func(r cacheRow) float64 { return r.TPI[core.SelectBestIndex(r.TPI)] }
	for a, app := range apps {
		p, o := best(paper[a]), best(other[a])
		t.Rows = append(t.Rows, []string{app, metrics.F(p), metrics.F(o), metrics.Pct(metrics.Reduction(o, p))})
	}
	return Result{
		ID: "ablation-increment", Title: t.Title, Tables: []metrics.Table{t},
		Notes: []string{"the paper chose 8KB 2-way increments as the better granularity/delay tradeoff"},
	}, nil
}

// ablationPower evaluates the Section 4.1 low-power mode: all adaptive
// structures at minimum size on the slowest clock. The energy proxy per
// instruction is active-capacity-fraction x CPI (switched capacitance scales
// with enabled structure, energy with cycles spent).
func ablationPower(ctx context.Context, cfg Config) (Result, error) {
	apps := []string{"gcc", "swim", "stereo"}
	t := metrics.Table{
		ID:      "ablation-power",
		Title:   "Low-power mode vs performance mode (cache hierarchy)",
		Columns: []string{"benchmark", "mode", "boundary", "TPI (ns)", "active L1 fraction", "energy proxy/instr"},
	}
	// The fig7-9 cache study's rows: a run after fig7 reuses them.
	rows, err := cacheProfiles(ctx, cfg, benchmarks(apps), cfg.CacheParams, core.PaperMaxBoundary)
	if err != nil {
		return Result{}, err
	}
	for a, app := range apps {
		tpi := rows[a].TPI
		bestK := core.SelectBestIndex(tpi)
		// Performance mode: the process-level best boundary at its own
		// (full-rate) clock. Low-power mode: minimum structure (least
		// switched capacitance) deliberately run on the SLOWEST clock in
		// the source table (paper Section 4.1) — CPI is that of k=1 but
		// every cycle is stretched to the k=max period.
		perf := cache.TimingFor(cfg.CacheParams, bestK)
		perfCPI := tpi[bestK] / perf.CycleNS
		perfFrac := float64(bestK) / float64(core.PaperMaxBoundary)
		t.Rows = append(t.Rows, []string{
			app, "performance", fmt.Sprintf("k=%d", bestK),
			metrics.F(tpi[bestK]), fmt.Sprintf("%.2f", perfFrac), metrics.F(perfFrac * perfCPI),
		})
		slow := cache.TimingFor(cfg.CacheParams, core.PaperMaxBoundary)
		lpCPI := tpi[1] / cache.TimingFor(cfg.CacheParams, 1).CycleNS
		lpFrac := 1.0 / float64(core.PaperMaxBoundary)
		t.Rows = append(t.Rows, []string{
			app, "low-power", "k=1 @ slow clk",
			metrics.F(lpCPI * slow.CycleNS), fmt.Sprintf("%.2f", lpFrac), metrics.F(lpFrac * lpCPI),
		})
	}
	return Result{
		ID: "ablation-power", Title: t.Title, Tables: []metrics.Table{t},
		Notes: []string{
			"low-power mode: minimum structure + slowest clock (paper Section 4.1); proxy = active fraction x CPI",
			"running slower additionally permits voltage scaling, which the proxy does not credit",
		},
	}, nil
}

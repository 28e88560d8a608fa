package experiments

import (
	"context"

	"capsim/internal/core"
	"capsim/internal/flight"
	"capsim/internal/sweep"
	"capsim/internal/workload"
)

func init() {
	register("zoo", "Policy zoo: adaptive contenders raced against fixed baselines and the per-interval oracle", zoo)
}

// The zoo experiment races every adaptive-policy contender through ONE
// lockstep MultiPolicy engine per (application, penalty) cell, alongside the
// fixed-configuration baselines and the synthesized oracle, and renders the
// league/dwell/summary tables from the engines' own flight accumulators
// (flight.LeagueReport — the same rendering path behind `capsim -report`).
// Because the tables are built from published run columns, re-running
// `capsim -report` over a ledger the experiment emitted (-ledger-out)
// reproduces them byte-for-byte.

// zooApps pairs the phase-modulated synthetic profiles (which reward
// adaptation: each phase prefers a different window size) with two paper
// applications as stationarity controls.
func zooApps() []string { return []string{"flutter", "squall", "turb3d", "vortex"} }

// zooSizes is the three-point configuration menu: the fast-clock small
// window, the paper's adaptive midpoint, and the full window.
var zooSizes = []int{16, 64, 128}

// zooPenalties sweeps the clock-switch cost from free through punitive —
// the axis that separates eager switchers from dwellers.
var zooPenalties = []int{0, 50, 200}

// zooContenders builds one fresh stateful instance of every adaptive policy:
// the interval predictor at its documented defaults and the four contenders
// on their package constants (they have no tunables), so the league measures
// the out-of-the-box controllers. Deliberately NOT penalty-tuned: stretching dwell floors and
// exploration cadences with the switch cost was tried and is fragile — it
// trades the punitive-penalty switch tax for response lag whose regret cost
// varies per policy and per workload (it regressed more cells than it
// fixed). The punitive-penalty column is where the league is supposed to
// separate eager switchers from dwellers; tuning it away would blunt the
// instrument.
func zooContenders() []core.PolicySpec {
	menu := []int{0, 1, 2}
	return []core.PolicySpec{
		{Policy: &core.IntervalPolicy{Configs: menu}},
		{Policy: &core.HysteresisPolicy{Configs: menu}},
		{Policy: &core.PIDPolicy{Configs: menu}},
		{Policy: &core.SlopeBanditPolicy{Configs: menu}},
		{Policy: &core.ProfileThenCommitPolicy{Configs: menu}},
	}
}

// zooIntervals scales the race length with the queue budget so the smoke
// configurations stay cheap, with a floor long enough for every contender to
// leave its bootstrap phase.
func zooIntervals(cfg Config) int64 {
	n := cfg.QueueInstrs / 250
	if n < 60 {
		n = 60
	}
	return n
}

// zooPass runs one (application, penalty) cell: the oracle column, the three
// fixed baselines, and a single Race of all contenders, all through one
// MultiPolicy engine. A private Capture collector reduces every published
// column to its league summary; nested in ctx, it adds to ctx's collectors
// (-ledger-out, a stream), which record the identical columns.
func zooPass(ctx context.Context, cfg Config, b workload.Benchmark, pen int, intervals int64) ([]flight.RunSummary, error) {
	sink := flight.NewCapture()
	cctx := flight.WithCollector(ctx, flight.NewCollector(sink))
	mp, err := core.NewMultiPolicy(b, cfg.Seed, zooSizes, cfg.IntervalInstrs, pen, cfg.Feature)
	if err != nil {
		return nil, err
	}
	if _, err := mp.RunOracle(cctx, intervals); err != nil {
		return nil, err
	}
	for c := range zooSizes {
		if _, err := mp.RunFixed(cctx, c, intervals); err != nil {
			return nil, err
		}
	}
	if _, err := mp.Race(cctx, zooContenders(), intervals); err != nil {
		return nil, err
	}
	return sink.Summaries(), nil
}

// zoo is the driver: fan the (application × penalty) grid across the sweep
// pool (each cell one persistable study row), dedup the summaries, and
// render the three league tables. No notes — the rendered body is exactly
// the tables, which is what lets `capsim -report` reproduce it.
func zoo(ctx context.Context, cfg Config) (Result, error) {
	apps := benchmarks(zooApps())
	intervals := zooIntervals(cfg)
	// A cell's race is simulated once per application and replayed at the
	// other penalties (core.MultiPolicy.Race), so a parallel pool claims the
	// cells penalty-major, apps the fast index: concurrent workers then race
	// different applications instead of one waiting on the other's race. A
	// serial pool keeps the app-major order its flight ledger records.
	na, np := len(apps), len(zooPenalties)
	at := func(i int) (a, p int) { return i / np, i % np }
	if sweep.Workers(ctx) > 1 {
		at = func(i int) (a, p int) { return i % na, i / na }
	}
	cells, err := sweep.RunCtx(ctx, na*np, func(i int) ([]flight.RunSummary, error) {
		a, p := at(i)
		b, pen := apps[a], zooPenalties[p]
		// The roster is keyed by content: a changed contender or tunable
		// is a different row.
		return recordedRow(ctx, "zoo", func() ([]flight.RunSummary, error) {
			return zooPass(ctx, cfg, b, pen, intervals)
		}, b, cfg.Seed, zooSizes, cfg.IntervalInstrs, pen, cfg.Feature, intervals, zooContenders())
	})
	if err != nil {
		return Result{}, err
	}
	grid := make([][][]flight.RunSummary, na)
	for a := range grid {
		grid[a] = make([][]flight.RunSummary, np)
	}
	for i := range cells {
		a, p := at(i)
		grid[a][p] = cells[i]
	}
	seen := map[string]bool{}
	var runs []flight.RunSummary
	for _, row := range grid {
		for _, cell := range row {
			for _, s := range cell {
				k := flight.SummaryKey(s)
				if seen[k] {
					continue
				}
				seen[k] = true
				runs = append(runs, s)
			}
		}
	}
	return Result{
		ID:     "zoo",
		Title:  "policy zoo league: adaptive contenders vs fixed baselines vs oracle",
		Tables: flight.LeagueReport(runs),
	}, nil
}

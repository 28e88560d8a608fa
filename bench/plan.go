package main

import (
	"context"
	"fmt"
	"slices"

	"capsim/internal/cache"
	"capsim/internal/classify"
	"capsim/internal/core"
	"capsim/internal/experiments"
	"capsim/internal/flight"
	"capsim/internal/ooo"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// layerPlan is the work the registry's study rows do in the simulation
// layers, as calls to each layer's public entry points. It mirrors the
// experiment drivers in internal/experiments — their application lists,
// configuration menus and budgets. A call several experiments share appears
// once, as it does in a cold run, where the persistent study cache serves
// the repeats. Drift between the plan and the drivers shows up in the trace
// as leak counts (lower-layer work inside an upper layer's span) and in
// other_ms; experiments the plan does not know (and the TLB and
// branch-predictor ablations, whose simulators belong to no layer here) are
// counted in other_ms.
type layerPlan struct {
	cfg      experiments.Config
	cache    []cacheRow
	queue    []planRow
	combined []combinedRow
	families []family
	policies []policyRun
	zoo      []zooCell
	seen     map[string]bool
}

// planRow is one study row of an application; cause is the experiment that
// first needs it.
type planRow struct {
	cause string
	b     workload.Benchmark
}

type cacheRow struct {
	planRow
	p    cache.Params
	maxB int
}

type combinedRow struct {
	planRow
	qs        []int
	points    []core.CombinedConfig
	intervals int64
	nrefs     int64 // classification-stream length the joint kernel replays
}

// family is one interval family (an application's per-size interval
// outcomes), built to the longest run any consumer replays.
type family struct {
	planRow
	sizes     []int
	intervals int64
}

// policyRun is one policy-driven interval run: a fixed configuration
// replayed from its family, or (fixed < 0) the interval-adaptive predictor
// raced live.
type policyRun struct {
	planRow
	sizes     []int
	penalty   int
	fixed     int
	intervals int64
}

// zooCell is one (application, penalty) cell of the policy zoo.
type zooCell struct {
	planRow
	penalty   int
	intervals int64
}

var (
	zooSizes     = []int{16, 64, 128}
	zooPenalties = []int{0, 50, 200}
)

// zooContenders builds the zoo's roster from the exported policy types, at
// their default tunables.
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

func buildPlan(cfg experiments.Config, ids []string) *layerPlan {
	p := &layerPlan{cfg: cfg, seen: map[string]bool{}}
	paper := cfg.CacheParams
	app := workload.MustByName
	intervalApps := []struct {
		b     workload.Benchmark
		sizes []int
	}{{app("turb3d"), []int{64, 128}}, {app("vortex"), []int{16, 64}}}
	for _, id := range ids {
		switch id {
		case "fig7", "fig8", "fig9":
			for _, b := range workload.CacheApps() {
				p.addCache(id, b, paper, core.PaperMaxBoundary)
			}
		case "ablation-power":
			for _, name := range []string{"gcc", "swim", "stereo"} {
				p.addCache(id, app(name), paper, core.PaperMaxBoundary)
			}
		case "ablation-increment":
			alt := cache.Params{Increments: 32, IncrementBytes: 4 * 1024, IncrementAssoc: 1, BlockBytes: paper.BlockBytes, Feature: paper.Feature}
			for _, name := range []string{"gcc", "stereo", "appcg", "swim"} {
				p.addCache(id, app(name), paper, core.PaperMaxBoundary)
				p.addCache(id, app(name), alt, 16)
			}
		case "fig10", "fig11":
			if !p.seen["queue study"] {
				p.seen["queue study"] = true
				for _, b := range workload.QueueApps() {
					p.queue = append(p.queue, planRow{id, b})
				}
			}
		case "fig12":
			b := app("turb3d")
			block := b.ILP.PeriodInstrs / cfg.IntervalInstrs
			p.addFamily(id, b, []int{64, 128}, block+block/5+200+10)
		case "fig13":
			b := app("vortex")
			super := b.ILP.SuperPeriodInstrs / cfg.IntervalInstrs
			p.addFamily(id, b, []int{16, 64}, super+super/6+300+10)
		case "ablation-interval":
			const n = 1500
			for _, a := range intervalApps {
				p.addFamily(id, a.b, a.sizes, n)
				for fixed := -1; fixed < len(a.sizes); fixed++ {
					p.policies = append(p.policies, policyRun{planRow{id, a.b}, a.sizes, cfg.PenaltyCycles, fixed, n})
				}
			}
		case "ablation-switch":
			for _, pen := range []int{0, 10, 20, 50, 100, 200} {
				p.policies = append(p.policies, policyRun{planRow{id, app("vortex")}, []int{16, 64}, pen, -1, 1200})
			}
		case "ablation-combined":
			qs, bs := []int{16, 64, 128}, []int{1, 2, 6, 8}
			var points []core.CombinedConfig
			maxWindow := 0
			for _, k := range bs {
				for _, w := range qs {
					points = append(points, core.CombinedConfig{QueueEntries: w, Boundary: k})
					maxWindow = max(maxWindow, ooo.PaperConfig(w).WindowSize)
				}
			}
			intervals := max(cfg.QueueInstrs/cfg.IntervalInstrs, 10)
			for _, name := range []string{"gcc", "stereo", "appcg", "compress", "swim"} {
				b := app(name)
				nrefs := classifyBudget(intervals, cfg.IntervalInstrs, maxWindow, ooo.PaperConfig(qs[0]).IssueWidth, b.Mem.RefsPerInstr)
				p.combined = append(p.combined, combinedRow{planRow{id, b}, qs, points, intervals, nrefs})
			}
		case "zoo":
			n := max(cfg.QueueInstrs/250, 60)
			for _, name := range []string{"flutter", "squall", "turb3d", "vortex"} {
				p.addFamily(id, app(name), zooSizes, n)
				for _, pen := range zooPenalties {
					p.zoo = append(p.zoo, zooCell{planRow{id, app(name)}, pen, n})
				}
			}
		}
	}
	return p
}

func (p *layerPlan) addCache(cause string, b workload.Benchmark, params cache.Params, maxB int) {
	key := fmt.Sprintf("%s|%+v|%d", b.Name, params, maxB)
	if !p.seen[key] {
		p.seen[key] = true
		p.cache = append(p.cache, cacheRow{planRow{cause, b}, params, maxB})
	}
}

func (p *layerPlan) addFamily(cause string, b workload.Benchmark, sizes []int, intervals int64) {
	for i := range p.families {
		if f := &p.families[i]; f.b.Name == b.Name && fmt.Sprint(f.sizes) == fmt.Sprint(sizes) {
			f.intervals = max(f.intervals, intervals)
			return
		}
	}
	p.families = append(p.families, family{planRow{cause, b}, sizes, intervals})
}

// geometries are the cache geometries whose decoded reference streams the
// plan's cache and classification rows replay.
func (p *layerPlan) geometries() []trace.Geometry {
	out := []trace.Geometry{geometry(p.cfg.CacheParams)}
	for _, r := range p.cache {
		if g := geometry(r.p); !slices.Contains(out, g) {
			out = append(out, g)
		}
	}
	return out
}

// run executes the plan's layers bottom-up inside tracer spans: classify,
// cache, ooo (queue profiles, joint grids, interval families), then core
// (policy replays and races). It returns the policy cells the races alone
// compute and the zoo's published run columns.
func (p *layerPlan) run(ctx context.Context, t *tracer) (raceCells int64, zooRuns *recorder) {
	cfg, seed := p.cfg, p.cfg.Seed
	for _, r := range p.combined {
		t.span("classify", r.b.Name, r.cause, func() error {
			_, err := classify.StreamFor(r.b, seed, cfg.CacheParams, core.PaperMaxBoundary, r.nrefs)
			return err
		})
	}
	for _, r := range p.cache {
		t.span("cache", fmt.Sprintf("%s maxB=%d", r.b.Name, r.maxB), r.cause, func() error {
			_, _, err := core.ProfileCacheTPI(r.b, seed, r.p, r.maxB, cfg.CacheWarmRefs, cfg.CacheRefs)
			return err
		})
	}
	for _, r := range p.queue {
		t.span("ooo", "queue "+r.b.Name, r.cause, func() error {
			_, err := core.ProfileQueueTPI(r.b, seed, core.PaperQueueSizes(), cfg.QueueInstrs, cfg.Feature)
			return err
		})
	}
	for _, r := range p.combined {
		t.span("ooo", "combined "+r.b.Name, r.cause, func() error {
			_, err := core.ProfileCombined(ctx, r.b, seed, r.qs, cfg.CacheParams, core.PaperMaxBoundary, r.points,
				r.intervals, cfg.IntervalInstrs, cfg.PenaltyCycles, cfg.Feature)
			return err
		})
	}
	for _, f := range p.families {
		t.span("ooo", fmt.Sprintf("family %s %v", f.b.Name, f.sizes), f.cause, func() error {
			mp, err := core.NewMultiPolicy(f.b, seed, f.sizes, cfg.IntervalInstrs, -1, cfg.Feature)
			if err == nil {
				_, err = mp.Traces(ctx, f.intervals)
			}
			return err
		})
	}
	for _, r := range p.policies {
		t.span("core", fmt.Sprintf("policy %s %v fixed=%d pen=%d", r.b.Name, r.sizes, r.fixed, r.penalty), r.cause, func() error {
			mp, err := core.NewMultiPolicy(r.b, seed, r.sizes, cfg.IntervalInstrs, r.penalty, cfg.Feature)
			if err != nil {
				return err
			}
			if r.fixed >= 0 {
				_, err = mp.RunFixed(ctx, r.fixed, r.intervals)
				return err
			}
			raceCells += r.intervals
			_, err = mp.Race(ctx, []core.PolicySpec{{Policy: &core.IntervalPolicy{Configs: []int{0, 1}}}}, r.intervals)
			return err
		})
	}
	zooRuns = &recorder{}
	for _, c := range p.zoo {
		t.span("core", fmt.Sprintf("zoo %s pen=%d", c.b.Name, c.penalty), c.cause, func() error {
			capture := flight.NewCapture()
			cctx := flight.WithCollector(ctx, flight.NewCollector(tee{capture, zooRuns}))
			mp, err := core.NewMultiPolicy(c.b, seed, zooSizes, cfg.IntervalInstrs, c.penalty, cfg.Feature)
			if err != nil {
				return err
			}
			if _, err := mp.RunOracle(cctx, c.intervals); err != nil {
				return err
			}
			for k := range zooSizes {
				if _, err := mp.RunFixed(cctx, k, c.intervals); err != nil {
					return err
				}
			}
			contenders := zooContenders()
			raceCells += int64(len(contenders)) * c.intervals
			_, err = mp.Race(cctx, contenders, c.intervals)
			return err
		})
	}
	return raceCells, zooRuns
}

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
	register("ablation-combined", "Joint cache+queue CAP: per-structure vs joint adaptation (Figure 5)", ablationCombined)
}

// combinedQueueSizes is the reduced queue set for the joint space (the full
// cross product of 8 queue sizes x 8 boundaries is needlessly fine for the
// study; the paper itself notes per-structure configuration counts shrink
// when structures are combined, "the number of configurations for a given
// structure might be limited due to larger delays in other structures").
func combinedQueueSizes() []int { return []int{16, 64, 128} }

// combinedBoundaries is the reduced boundary set for the joint space.
func combinedBoundaries() []int { return []int{1, 2, 6, 8} }

// ablationCombined evaluates the full Figure 5 processor: both adaptive
// structures under one configuration manager, with the clock set by the
// worst case of the enabled configurations. It compares three management
// strategies per application:
//
//   - conventional: the workload-wide best fixed joint configuration;
//   - per-structure: each structure picks its own best as if alone (the
//     naive composition of the paper's two experiments), then the joint
//     clock is applied — cross-structure coupling can void the choice;
//   - joint oracle: the best configuration of the joint space.
func ablationCombined(ctx context.Context, cfg Config) (Result, error) {
	apps := []string{"gcc", "stereo", "appcg", "compress", "swim"}
	qs := combinedQueueSizes()
	bs := combinedBoundaries()

	type profiled struct {
		name  string
		tpi   map[core.CombinedConfig]float64
		joint core.CombinedConfig
	}
	intervals := cfg.QueueInstrs / cfg.IntervalInstrs
	if intervals < 10 {
		intervals = 10
	}

	// One ProfileCombined call per application covers its whole (boundary x
	// queue-size) grid in a single joint-kernel pass (stream decoded once,
	// hierarchy rows shared across queue columns). Joint-space point j maps to (bs[j/len(qs)], qs[j%len(qs)]), preserving
	// the original scan order, so the joint-best tie-break (first
	// strictly-smaller wins) is unchanged.
	points := make([]core.CombinedConfig, 0, len(bs)*len(qs))
	for _, k := range bs {
		for _, w := range qs {
			points = append(points, core.CombinedConfig{QueueEntries: w, Boundary: k})
		}
	}
	grid, err := sweep.RunCtx(ctx, len(apps), func(a int) ([]float64, error) {
		b, err := workload.ByName(apps[a])
		if err != nil {
			return nil, err
		}
		// One study row per application: the whole joint grid pass is the
		// unit of reuse.
		return studyRow(ctx, "combined", func() ([]float64, error) {
			return core.ProfileCombined(ctx, b, cfg.Seed, qs, cfg.CacheParams, core.PaperMaxBoundary,
				points, intervals, cfg.IntervalInstrs, cfg.PenaltyCycles, cfg.Feature)
		}, b, cfg.Seed, qs, cfg.CacheParams, core.PaperMaxBoundary, points, intervals, cfg.IntervalInstrs, cfg.PenaltyCycles, cfg.Feature)
	})
	if err != nil {
		return Result{}, err
	}
	profiles := make([]profiled, 0, len(apps))
	for a, app := range apps {
		p := profiled{name: app, tpi: map[core.CombinedConfig]float64{}}
		for j, cc := range points {
			v := grid[a][j]
			p.tpi[cc] = v
			if j == 0 || v < p.tpi[p.joint] {
				p.joint = cc
			}
		}
		profiles = append(profiles, p)
	}

	// Conventional: the single joint configuration with the smallest
	// workload-mean TPI.
	var conv core.CombinedConfig
	bestMean := 0.0
	for _, k := range bs {
		for _, w := range qs {
			cc := core.CombinedConfig{QueueEntries: w, Boundary: k}
			var sum float64
			for _, p := range profiles {
				sum += p.tpi[cc]
			}
			if bestMean == 0 || sum < bestMean {
				conv, bestMean = cc, sum
			}
		}
	}

	t := metrics.Table{
		ID:    "ablation-combined",
		Title: "Joint CAP TPI (ns): conventional vs per-structure vs joint adaptation",
		Columns: []string{"benchmark", "conventional", "per-structure", "joint adaptive",
			"joint config", "joint vs conventional"},
	}
	var convSum, perSum, jointSum float64
	for _, p := range profiles {
		// Per-structure: best queue at the conventional boundary, best
		// boundary at the conventional queue — composed independently.
		bestQ := conv.QueueEntries
		for _, w := range qs {
			if p.tpi[core.CombinedConfig{QueueEntries: w, Boundary: conv.Boundary}] <
				p.tpi[core.CombinedConfig{QueueEntries: bestQ, Boundary: conv.Boundary}] {
				bestQ = w
			}
		}
		bestK := conv.Boundary
		for _, k := range bs {
			if p.tpi[core.CombinedConfig{QueueEntries: conv.QueueEntries, Boundary: k}] <
				p.tpi[core.CombinedConfig{QueueEntries: conv.QueueEntries, Boundary: bestK}] {
				bestK = k
			}
		}
		per := p.tpi[core.CombinedConfig{QueueEntries: bestQ, Boundary: bestK}]
		convV := p.tpi[conv]
		jointV := p.tpi[p.joint]
		convSum += convV
		perSum += per
		jointSum += jointV
		t.Rows = append(t.Rows, []string{
			p.name, metrics.F(convV), metrics.F(per), metrics.F(jointV),
			fmt.Sprintf("IQ=%d/L1=%dKB", p.joint.QueueEntries, p.joint.Boundary*8),
			metrics.Pct(metrics.Reduction(convV, jointV)),
		})
	}
	n := float64(len(profiles))
	t.Rows = append(t.Rows, []string{
		"average", metrics.F(convSum / n), metrics.F(perSum / n), metrics.F(jointSum / n), "",
		metrics.Pct(metrics.Reduction(convSum/n, jointSum/n)),
	})
	return Result{
		ID: "ablation-combined", Title: t.Title, Tables: []metrics.Table{t},
		Notes: []string{
			fmt.Sprintf("conventional baseline: IQ=%d/L1=%dKB (workload-mean best)", conv.QueueEntries, conv.Boundary*8),
			"the joint clock is the worst case of both structures, so per-structure choices can interact",
		},
	}, nil
}

package experiments

import (
	"context"
	"fmt"

	"capsim/internal/core"
	"capsim/internal/metrics"
	"capsim/internal/sweep"
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
	apps := benchmarks([]string{"gcc", "stereo", "appcg", "compress", "swim"})
	qs := combinedQueueSizes()
	bs := combinedBoundaries()
	intervals := max(cfg.QueueInstrs/cfg.IntervalInstrs, 10)

	// One ProfileCombined call per application covers its whole (boundary x
	// queue-size) grid in a single joint-kernel pass (stream decoded once,
	// hierarchy rows shared across queue columns). Joint configuration j is
	// (bs[j/len(qs)], qs[j%len(qs)]); of equally good ones the lowest j wins.
	var points []core.CombinedConfig
	var labels []string
	for _, k := range bs {
		for _, w := range qs {
			points = append(points, core.CombinedConfig{QueueEntries: w, Boundary: k})
			labels = append(labels, fmt.Sprintf("IQ=%d/L1=%dKB", w, k*8))
		}
	}
	grid, err := sweep.RunCtx(ctx, len(apps), func(a int) ([]float64, error) {
		b := apps[a]
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
	s := newStudy(apps, grid)
	nq := len(qs)
	cb, cq := s.conv/nq, s.conv%nq
	rows := make([]compareRow, len(apps))
	for a, b := range apps {
		tpi := grid[a]
		// Per-structure: the best queue at the conventional boundary and
		// the best boundary at the conventional queue, composed
		// independently.
		byQueue, byBoundary := make([]float64, nq), make([]float64, len(bs))
		for q := range byQueue {
			byQueue[q] = tpi[cb*nq+q]
		}
		for k := range byBoundary {
			byBoundary[k] = tpi[k*nq+cq]
		}
		per := tpi[keepUnlessBeaten(byBoundary, cb)*nq+keepUnlessBeaten(byQueue, cq)]
		joint := s.best(a)
		rows[a] = compareRow{b.Name, []float64{tpi[s.conv], per, tpi[joint]}, labels[joint]}
	}
	t := compareTable("ablation-combined", "Joint CAP TPI (ns): conventional vs per-structure vs joint adaptation",
		[]string{"benchmark", "conventional", "per-structure", "joint adaptive", "joint config", "joint vs conventional"}, rows)
	return Result{
		ID: "ablation-combined", Title: t.Title, Tables: []metrics.Table{t},
		Notes: []string{
			"conventional baseline: " + labels[s.conv] + " (workload-mean best)",
			"the joint clock is the worst case of both structures, so per-structure choices can interact",
		},
	}, nil
}

// keepUnlessBeaten is ablation-combined's per-structure pick: the
// conventional configuration conv stands unless another is strictly better.
func keepUnlessBeaten(tpi []float64, conv int) int {
	if i := core.SelectBestIndex(tpi); tpi[i] < tpi[conv] {
		return i
	}
	return conv
}

// Package capsim is a Go reproduction of "Dynamic IPC/Clock Rate
// Optimization" — David H. Albonesi's Complexity-Adaptive Processors (CAPs),
// ISCA 1998.
//
// CAPs replace fixed superscalar control and cache structures with
// configurable ones built on the repeater (wire-buffer) methodologies of
// deep-submicron design, and pair them with a dynamic clock so that every
// configuration runs at its full clock-rate potential. The runtime can then
// trade IPC against clock rate to match the needs of the running
// application, minimizing TPI (time per instruction = cycle time / IPC).
//
// This package is the stable facade over the implementation packages:
//
//   - the adaptive two-level Dcache hierarchy (movable L1/L2 boundary,
//     exclusive caching) and the adaptive out-of-order instruction queue;
//   - the technology models behind them (Bakoglu repeater insertion,
//     CACTI-style cache timing, Palacharla wakeup/select timing);
//   - configuration-management policies: conventional fixed, the paper's
//     process-level scheme, and the Section 6 confidence-gated interval
//     predictor;
//   - the synthetic workload models standing in for SPEC95 + CMU + NAS;
//   - the experiment harness regenerating every figure of the paper's
//     evaluation.
//
// See README.md for a tour and DESIGN.md for the system inventory.
package capsim

import (
	"context"

	"capsim/internal/cache"
	"capsim/internal/core"
	"capsim/internal/experiments"
	"capsim/internal/metrics"
	"capsim/internal/tech"
	"capsim/internal/workload"
)

// Re-exported core types: the CAP control plane.
type (
	// Policy is a configuration-management heuristic.
	Policy = core.Policy
	// FixedPolicy models a conventional, design-time-frozen processor.
	FixedPolicy = core.FixedPolicy
	// ProcessLevelPolicy is the paper's per-application oracle scheme.
	ProcessLevelPolicy = core.ProcessLevelPolicy
	// IntervalPolicy is the Section 6 confidence-gated interval predictor.
	IntervalPolicy = core.IntervalPolicy
	// RunResult aggregates a policy-driven run.
	RunResult = core.RunResult
	// Benchmark is a synthetic application model.
	Benchmark = workload.Benchmark
	// CacheParams is the adaptive hierarchy's physical organization.
	CacheParams = cache.Params
	// ExperimentConfig holds experiment run budgets.
	ExperimentConfig = experiments.Config
	// ExperimentResult is a regenerated table/figure set.
	ExperimentResult = experiments.Result
	// Figure is a reproduced paper figure.
	Figure = metrics.Figure
	// Table is a reproduced paper table.
	Table = metrics.Table
)

// Feature sizes studied by the paper.
const (
	Micron025 = tech.Micron025
	Micron018 = tech.Micron018
	Micron012 = tech.Micron012
)

// PaperQueueSizes returns the paper's queue configurations (16-128 entries).
func PaperQueueSizes() []int { return core.PaperQueueSizes() }

// PaperCacheParams returns the paper's 128 KB / 16x8KB 2-way hierarchy.
func PaperCacheParams() CacheParams { return cache.PaperParams() }

// QueueCycleNS returns the cycle time (ns) an instruction queue of the given
// entry count imposes at 0.18 µm: its wakeup+select critical path.
func QueueCycleNS(entries int) float64 {
	return core.QueueCycleNS(entries, tech.ForFeature(tech.Micron018))
}

// CacheCycleNS returns the cycle time (ns) the L1 imposes with the L1/L2
// boundary after k increments of p.
func CacheCycleNS(p CacheParams, k int) float64 { return cache.TimingFor(p, k).CycleNS }

// ProfileQueue runs every queue size for instrs instructions at 0.18 µm and
// returns TPI (ns) indexed like sizes: the profiling pass of the paper's
// process-level scheme (Section 5.3).
func ProfileQueue(b Benchmark, seed uint64, sizes []int, instrs int64) ([]float64, error) {
	return core.ProfileQueueTPI(b, seed, sizes, instrs, tech.Micron018)
}

// ProfileCache profiles every L1/L2 boundary k = 1..8 (8-64 KB L1) of the
// hierarchy: warm references prime it, then refs are measured. tpi and
// tpiMiss are indexed by k; slot 0 is +Inf.
func ProfileCache(b Benchmark, seed uint64, p CacheParams, warm, refs int64) (tpi, tpiMiss []float64, err error) {
	return core.ProfileCacheTPI(b, seed, p, core.PaperMaxBoundary, warm, refs)
}

// RunQueue runs the adaptive instruction queue at 0.18 µm under a policy
// for `intervals` intervals of n instructions, starting at sizes[0], and
// charges every reconfiguration's drain and clock-switch cost.
// penaltyCycles < 0 selects the default clock-switch penalty. Cancelling
// ctx stops the run and returns ctx's error.
func RunQueue(ctx context.Context, b Benchmark, seed uint64, sizes []int, p Policy, intervals, n int64, penaltyCycles int) (RunResult, error) {
	return core.RunPolicyStudy(ctx, b, seed, sizes, p, intervals, n, penaltyCycles, tech.Micron018)
}

// Benchmarks returns all 22 application models in the paper's order.
func Benchmarks() []Benchmark { return workload.All() }

// BenchmarkByName looks up one application model.
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// Experiments lists the reproducible experiment IDs (fig1a ... fig13 and the
// ablations).
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one of the paper's tables/figures.
func RunExperiment(id string, cfg ExperimentConfig) (ExperimentResult, error) {
	return experiments.Run(id, cfg)
}

// RunExperimentCtx is RunExperiment under a context: cancelling ctx stops
// the experiment's sweep pools from claiming new simulation jobs and returns
// ctx's error. Safe for concurrent use; concurrent calls with equal
// configurations share the memoized profiling passes.
func RunExperimentCtx(ctx context.Context, id string, cfg ExperimentConfig) (ExperimentResult, error) {
	return experiments.RunCtx(ctx, id, cfg)
}

// DefaultExperimentConfig returns the standard (scaled-down) run budgets.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

package experiments

import (
	"fmt"
	"sync/atomic"

	"capsim/internal/cache"
	"capsim/internal/core"
	"capsim/internal/flight"
	"capsim/internal/memo"
	"capsim/internal/tech"
	"capsim/internal/workload"
)

// Study rows: the unit of persistent reuse across processes.
//
// Every heavy experiment driver decomposes into independent *rows* — one
// (application × configuration-family) profiling pass — fanned across the
// sweep pool. This file wraps each row computation in studyRow: with a
// study cache directory set (capsim -study-cache, SetStudyCacheDir),
// finished rows are published to a content-addressed store
// (internal/memo.Store) and later processes — repeated CLI runs, CI,
// processes running disjoint -experiment subsets over one directory — load
// them instead of recomputing. Values are gob-encoded, so float64
// round-trips bit-exactly and the byte-identical-render contract survives
// the disk hop.
//
// Row keys are canonical strings over exactly the row's render-determining
// inputs (the same canonicalization discipline as server.cacheKey /
// Config.CanonicalKey). Two drivers that need the same pass share one key —
// ablation-power and half of ablation-increment reuse the fig7 cache-study
// rows — so a warm store accelerates across experiments, not just within
// one.

// studyStore is the process-wide persistent row store, nil when disabled.
var studyStore atomic.Pointer[memo.Store]

// SetStudyCacheDir backs the study-row memo tier with a persistent
// content-addressed store rooted at dir (created if needed); "" disables
// persistence. Safe to call concurrently with runs: rows started before the
// switch finish against the store they began with.
func SetStudyCacheDir(dir string) error {
	if dir == "" {
		studyStore.Store(nil)
		return nil
	}
	s, err := memo.OpenStore(dir)
	if err != nil {
		return err
	}
	studyStore.Store(s)
	return nil
}

// studyRow runs one row through the persistent store, when one is set.
func studyRow[V any](key string, fn func() (V, error)) (V, error) {
	return memo.PersistDo(studyStore.Load(), key, fn)
}

// cacheRow is one application's cache-boundary profiling pass (dense by
// boundary k, slot 0 = +Inf padding). Exported fields for gob.
type cacheRow struct {
	TPI  []float64
	Miss []float64
}

// cacheProfileRow is the row behind Figures 7-9, ablation-power, and the
// paper-design half of ablation-increment: one ProfileCacheTPI pass. The key
// carries every argument (cache.Params includes the feature size), so a
// -study-cache serves the same (app, geometry, budget) pass to all of those
// experiments. Without one, only Figures 7-9 share it in process (through
// runCacheStudy); ablation-power and ablation-increment recompute it.
func cacheProfileRow(b workload.Benchmark, seed uint64, p cache.Params, maxB int, warm, refs int64) (cacheRow, error) {
	key := fmt.Sprintf("cacheprof|seed=%d|warm=%d|refs=%d|maxB=%d|p=%+v|app=%s",
		seed, warm, refs, maxB, p, b.Name)
	return studyRow(key, func() (cacheRow, error) {
		tpi, miss, err := core.ProfileCacheTPI(b, seed, p, maxB, warm, refs)
		return cacheRow{TPI: tpi, Miss: miss}, err
	})
}

// queueProfileRow is the row behind Figures 10-11: one ProfileQueueTPI pass
// over all window sizes (dense by size index).
func queueProfileRow(b workload.Benchmark, seed uint64, sizes []int, instrs int64, f tech.FeatureSize) ([]float64, error) {
	key := fmt.Sprintf("queueprof|seed=%d|qi=%d|f=%g|sizes=%v|app=%s",
		seed, instrs, float64(f), sizes, b.Name)
	return studyRow(key, func() ([]float64, error) {
		return core.ProfileQueueTPI(b, seed, sizes, instrs, f)
	})
}

// traceRow is the row behind the Section 6 interval studies (fig12, fig13,
// the per-interval oracle): per-configuration, per-interval TPI traces.
func traceRow(b workload.Benchmark, seed uint64, entries []int, n, iv int64, pen int, f tech.FeatureSize, fn func() ([][]float64, error)) ([][]float64, error) {
	key := fmt.Sprintf("qtrace|seed=%d|iv=%d|pen=%d|f=%g|entries=%v|n=%d|app=%s",
		seed, iv, pen, float64(f), entries, n, b.Name)
	return studyRow(key, fn)
}

// policyRow is the row behind ablation-interval and ablation-switch: one
// core.RunPolicyStudy run. label names the policy ("fixed:0",
// "adaptive") — policies are stateful, so the key carries the caller's
// canonical name rather than a formatted struct.
func policyRow(app string, seed uint64, sizes []int, label string, intervals, iv int64, pen int, f tech.FeatureSize, fn func() (core.RunResult, error)) (core.RunResult, error) {
	key := fmt.Sprintf("qpolicy|seed=%d|iv=%d|pen=%d|f=%g|sizes=%v|n=%d|policy=%s|app=%s",
		seed, iv, pen, float64(f), sizes, intervals, label, app)
	return studyRow(key, fn)
}

// combinedRow is the row behind ablation-combined: one application's joint
// (boundary × queue) grid, dense by point index.
func combinedRow(app string, seed uint64, points []core.CombinedConfig, p cache.Params, intervals, iv int64, pen int, f tech.FeatureSize, fn func() ([]float64, error)) ([]float64, error) {
	key := fmt.Sprintf("combined|seed=%d|iv=%d|pen=%d|f=%g|p=%+v|points=%+v|n=%d|app=%s",
		seed, iv, pen, float64(f), p, points, intervals, app)
	return studyRow(key, fn)
}

// scalarRow is the generic single-cell row used by the TLB and
// branch-predictor ablations; key is the caller's full canonical cell key.
func scalarRow(key string, fn func() (float64, error)) (float64, error) {
	return studyRow(key, fn)
}

// zooRow is the row behind the zoo experiment: one (application, penalty)
// cell's complete pass — oracle, fixed baselines, and the contender race —
// reduced to league summaries. Summaries are what the tables render from, so
// the persisted value stays small (no event columns) and a warm store
// re-renders byte-identically. The key carries the contender roster: a
// changed zoo must miss the cache.
func zooRow(cfg Config, app string, pen int, intervals int64, fn func() ([]flight.RunSummary, error)) ([]flight.RunSummary, error) {
	key := fmt.Sprintf("zoo|seed=%d|iv=%d|pen=%d|f=%g|sizes=%v|n=%d|policies=%s|app=%s",
		cfg.Seed, cfg.IntervalInstrs, pen, float64(cfg.Feature), zooSizes, intervals, zooPolicyNames(), app)
	return studyRow(key, fn)
}

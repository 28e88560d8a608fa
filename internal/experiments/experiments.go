// Package experiments regenerates every table and figure of the paper's
// evaluation (Figures 1, 2, 7, 8, 9, 10, 11, 12 and 13), plus the ablation
// studies DESIGN.md calls out. Each experiment is a named driver that
// returns typed figures/tables rendered as aligned text; cmd/capsim exposes
// them on the command line and bench_test.go wraps each in a testing.B
// benchmark.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"capsim/internal/cache"
	"capsim/internal/core"
	"capsim/internal/metrics"
	"capsim/internal/tech"
	"capsim/internal/trace"
)

// Config holds the run budgets. The paper uses 100 M references /
// instructions per application; the defaults here are scaled down (the
// synthetic profiles are stationary long before that) and can be raised for
// full runs.
type Config struct {
	// Seed is the master workload seed.
	Seed uint64
	// CacheWarmRefs references warm each cache configuration before
	// measurement begins.
	CacheWarmRefs int64
	// CacheRefs references are measured per cache configuration.
	CacheRefs int64
	// QueueInstrs instructions are measured per queue configuration.
	QueueInstrs int64
	// IntervalInstrs is the interval length for the Section 6 studies
	// (the paper uses 2000 instructions).
	IntervalInstrs int64
	// PenaltyCycles is the clock-switch penalty (<0 = default).
	PenaltyCycles int
	// Feature is the process generation for the performance studies.
	Feature tech.FeatureSize
	// CacheParams is the adaptive-hierarchy geometry. Its Feature must
	// equal Feature: the cache studies read the one, the queue and policy
	// studies the other.
	CacheParams cache.Params
}

// DefaultConfig returns the standard budgets used by tests and benchmarks.
func DefaultConfig() Config {
	return Config{
		Seed:           1998, // ISCA 1998
		CacheWarmRefs:  100_000,
		CacheRefs:      400_000,
		QueueInstrs:    150_000,
		IntervalInstrs: 2_000,
		PenaltyCycles:  -1,
		Feature:        tech.Micron018,
		CacheParams:    cache.PaperParams(),
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	switch {
	case c.CacheRefs < 1000:
		return fmt.Errorf("experiments: CacheRefs %d too small", c.CacheRefs)
	case c.QueueInstrs < 1000:
		return fmt.Errorf("experiments: QueueInstrs %d too small", c.QueueInstrs)
	case c.IntervalInstrs < 100:
		return fmt.Errorf("experiments: IntervalInstrs %d too small", c.IntervalInstrs)
	case c.CacheWarmRefs < 0:
		return fmt.Errorf("experiments: negative warm-up")
	}
	if err := tech.CheckFeature("experiments", c.Feature); err != nil {
		return err
	}
	if c.CacheParams.Feature != c.Feature {
		return fmt.Errorf("experiments: CacheParams.Feature %g differs from Feature %g microns",
			float64(c.CacheParams.Feature), float64(c.Feature))
	}
	return c.CacheParams.Validate()
}

// Result is the output of one experiment.
type Result struct {
	ID      string
	Title   string
	Figures []metrics.Figure
	Tables  []metrics.Table
	Notes   []string
}

// Render returns the complete text form of the result.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, f := range r.Figures {
		b.WriteString(f.Render())
		b.WriteByte('\n')
	}
	for _, t := range r.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is an experiment driver. Drivers observe ctx at sweep-job
// granularity: cancellation stops the driver's worker pools from claiming
// new simulation jobs (see DESIGN.md "Experiment service & the cancellation
// contract"); a job already executing runs to completion.
type Runner func(ctx context.Context, cfg Config) (Result, error)

var registry = map[string]struct {
	title string
	run   Runner
}{}

func register(id, title string, run Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = struct {
		title string
		run   Runner
	}{title, run}
}

// IDs returns all experiment identifiers, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns the experiment's title.
func Title(id string) (string, error) {
	e, ok := registry[id]
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return e.title, nil
}

// ResetCaches discards the in-process study rows, the shared materialized
// instruction stores and the race families layered on them (the fixed
// baselines' columns included); a persistent study cache is left as it is.
// Long-lived processes that sweep many configurations can call it to bound
// memory; the determinism tests call it between serial and parallel passes
// so the comparison re-runs the full compute instead of hitting the memo.
func ResetCaches() {
	studyRows.Reset()
	trace.Reset()
	core.ResetPolicyFamilies()
}

// Run executes the experiment with the given configuration. It is RunCtx
// under context.Background(): nothing cancels it and nothing records it.
func Run(id string, cfg Config) (Result, error) {
	return RunCtx(context.Background(), id, cfg)
}

// RunCtx executes the experiment with the given configuration under ctx.
// Cancelling ctx stops the driver's sweep pools from claiming new simulation
// jobs and returns ctx's error; partial results are never returned. RunCtx
// is safe for concurrent use — the experiment API server invokes it from one
// goroutine per request — and concurrent invocations with equal
// configurations share the memoized profiling passes (singleflight).
func RunCtx(ctx context.Context, id string, cfg Config) (Result, error) {
	e, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return e.run(ctx, cfg)
}

// SetStudyCacheCap bounds every in-process memo a run fills — the study
// rows, the one race-family memo behind every policy study (fixed baselines
// included) and the materialized instruction stores — to at most n entries
// each, with deterministic LRU eviction (memo.SetCap). The long-lived API
// server sets this at startup so a stream of requests with distinct seeds
// or budgets cannot grow the process without bound; the one-shot CLI never
// calls it and keeps the unbounded default. Eviction never changes a
// render: an evicted entry is recomputed identically.
func SetStudyCacheCap(n int) {
	studyRows.SetCap(n)
	core.SetPolicyFamilyCap(n)
	trace.SetStoreCap(n)
}

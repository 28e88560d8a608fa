// Package sweep is the parallel sweep engine behind the experiment drivers:
// a bounded worker pool that fans independent (benchmark, configuration)
// simulation jobs across CPUs while preserving bit-for-bit determinism.
//
// Every figure of the paper is a sweep over a cross product — 21 applications
// x 16 boundary positions for Figures 7-9, 22 applications x 8 queue sizes
// for Figures 10-11 — whose cells are completely independent: each cell
// builds a fresh machine whose workload generators are seeded by
// (master seed, benchmark name, purpose) via rng.DeriveSeed, so no cell can
// observe another cell's random stream or simulator state.
//
// Determinism contract (see DESIGN.md "Parallel execution & determinism"):
//
//   - jobs are identified by their index in [0, n); the result of job i is
//     stored at results[i] regardless of which worker ran it or when it
//     finished — collection is by index, never by completion order;
//   - jobs derive all randomness from their own arguments (never from shared
//     mutable state), so scheduling cannot perturb any simulated outcome;
//   - error selection is deterministic: the error of the lowest-indexed
//     failing job is returned, even though the pool stops claiming
//     higher-indexed jobs as soon as any error is observed (every job below
//     the current minimum failing index still runs, so the reported error is
//     exactly the one a full serial pass would report).
//
// Consequently RunCtx(ctx, n, fn) returns byte-identical results for any
// worker count, including 1 (`capsim -parallel 1` and the determinism
// tests), which runs the same worker loop on the calling goroutine.
//
// OrderedCtx is the one scheduler underneath: besides running the jobs, it
// emits them in index order as each finishes after its predecessors.
// RunNCtx collects results through it; capsim runs the experiments of one
// invocation as its jobs and prints each in registry order from its emit.
//
// Cancellation (see DESIGN.md "Experiment service & the cancellation
// contract"): the *Ctx variants stop claiming new jobs once ctx is done and
// return ctx.Err(). Cancellation is inherently racy — which jobs had already
// been claimed depends on scheduling — so a cancelled run never returns
// partial results, only the context's error. A run whose jobs all completed
// before the cancellation was observed returns its full results, mirroring
// the serial loop finishing its last iteration.
package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"capsim/internal/flight"
	"capsim/internal/obs"
)

// Telemetry (internal/obs). The counter is a no-op unless something reads it
// (capsim -metrics-out, or -serve-api's /metrics) and enabled it.
var obsJobs = obs.NewCounter("sweep.jobs") // RunNCtx jobs executed: simulation grid cells

// defaultWorkers holds the process-wide worker count used by Run when the
// caller does not specify one. Zero (the initial value) means "use
// runtime.GOMAXPROCS(0)". cmd/capsim's -parallel flag sets it.
var defaultWorkers atomic.Int32

// SetDefaultWorkers sets the process-wide default worker count. n < 1
// restores the automatic default (GOMAXPROCS).
func SetDefaultWorkers(n int) {
	if n < 1 {
		n = 0
	}
	defaultWorkers.Store(int32(n))
}

// DefaultWorkers returns the worker count Run will use: the value set by
// SetDefaultWorkers, or runtime.GOMAXPROCS(0) when unset.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// workersKey is the context key of a per-context worker-count override.
type workersKey struct{}

// WithWorkers returns a context whose RunCtx/GridCtx calls use n
// workers instead of the process default. The experiment API server uses it
// to honour a request's `parallel` field without touching the process-wide
// SetDefaultWorkers (which would race between concurrent requests). n < 1
// removes any override.
func WithWorkers(ctx context.Context, n int) context.Context {
	if n < 1 {
		n = 0
	}
	return context.WithValue(ctx, workersKey{}, n)
}

// CtxWorkers returns the WithWorkers override carried by ctx, or 0 when the
// context has none (callers fall back to DefaultWorkers). The experiment API
// server uses it to report the worker count a run actually executed with.
func CtxWorkers(ctx context.Context) int {
	if n, ok := ctx.Value(workersKey{}).(int); ok && n > 0 {
		return n
	}
	return 0
}

// Workers resolves the effective worker count for ctx: the WithWorkers
// override when present and positive, the process default otherwise.
func Workers(ctx context.Context) int {
	if n := CtxWorkers(ctx); n > 0 {
		return n
	}
	return DefaultWorkers()
}

// RunCtx executes jobs 0..n-1 and collects their results by index. The
// worker count comes from WithWorkers (or the process default), and the pool
// stops claiming jobs once ctx is done. See RunNCtx.
func RunCtx[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	return RunNCtx(ctx, Workers(ctx), n, fn)
}

// RunNCtx executes jobs 0..n-1 on at most `workers` concurrent goroutines.
// results[i] always holds job i's value. The returned error is the
// lowest-indexed job error, or ctx.Err() if the run was cancelled before
// every job completed, or nil. It is OrderedCtx with the results collected
// by index and nothing emitted.
//
// RunNCtx may be nested: a job may itself call RunCtx. Each invocation
// spawns its own bounded goroutine set and holds no locks while jobs
// execute, so nesting cannot deadlock; it merely oversubscribes the
// scheduler briefly.
func RunNCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	err := OrderedCtx(ctx, workers, n, func(_ context.Context, i int) (err error) {
		results[i], err = fn(i)
		obsJobs.Inc()
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// OrderedCtx executes jobs 0..n-1 on at most `workers` concurrent
// goroutines and calls emit(i) in index order: as soon as job i and every
// job before it have finished, on the goroutine that finished the last of
// them. Emits never overlap each other, and a job's writes before it
// returns are visible to its emit. A nil emit emits nothing. With one
// worker everything runs on the calling goroutine, strictly in turn: job 0,
// emit 0, job 1, emit 1, and so on.
//
// The returned error is the lowest-indexed job error, or ctx.Err() if the
// run was cancelled before every job completed, or nil. A failing job's
// error is final once every job before it has been emitted; its emit is not
// called, nor any later one, and the context passed to the jobs still in
// flight is cancelled. A cancelled run stops emitting at the first job it
// did not finish; what it emitted before stays emitted.
//
// Error abort: the pool stops claiming jobs whose index is above the lowest
// failing index observed so far, so an early failure does not burn CPU on
// the rest of the grid. Jobs *below* that index still run — one of them
// could fail with a lower index — which is what keeps the selected error
// identical to a serial pass's (which stops at its first error, by
// construction the lowest-indexed one).
func OrderedCtx(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error, emit func(i int)) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = min(max(workers, 1), n)
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Flight-recorder progress: one pulse per completed job so a streaming
	// client sees movement during long sweeps. Checked once per pass; plain
	// runs pay one ctx.Value + one atomic load.
	prog := flight.Active(ctx)
	var next, executed atomic.Int64
	// minErr is the lowest failing job index observed so far; n means "no
	// error yet". Workers skip any claim above it (the abort), but still run
	// claims below it (the determinism guarantee).
	var minErr atomic.Int64
	minErr.Store(int64(n))
	var (
		mu       sync.Mutex // guards the fields below and serializes emit
		errs     = make([]error, n)
		finished = make([]bool, n)
		emitted  int // jobs below emitted have been emitted
	)
	work := func() {
		for jobCtx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if int64(i) > minErr.Load() {
				// A lower-indexed job already failed; this one's result
				// could never be returned. Skip without running.
				continue
			}
			err := fn(jobCtx, i)
			if done := executed.Add(1); prog {
				flight.PublishProgress(ctx, flight.Progress{Done: int(done), Total: n, Label: "sweep"})
			}
			for err != nil {
				cur := minErr.Load()
				if int64(i) >= cur || minErr.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
			mu.Lock()
			errs[i], finished[i] = err, true
			for emitted < n && finished[emitted] {
				if errs[emitted] != nil {
					// The run's error is final: no job in flight can be
					// returned or emitted any more.
					cancel()
					break
				}
				if emit != nil {
					emit(emitted)
				}
				emitted++
			}
			mu.Unlock()
		}
	}
	// Worker 0 is the calling goroutine, so a one-worker pass (the
	// determinism tests' baseline, capsim -parallel 1) spawns nothing.
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if idx := minErr.Load(); idx < int64(n) {
		return errs[idx]
	}
	if emitted < n {
		// Gaps without a recorded job error can only come from cancellation.
		return ctx.Err()
	}
	return nil
}

// GridCtx is RunCtx for two-dimensional sweeps over an (outer x inner)
// cross product, the shape of every figure in the paper. Job (o, i) runs at
// flat index o*inner+i; results are returned as a dense [outer][inner]
// matrix.
func GridCtx[T any](ctx context.Context, outer, inner int, fn func(o, i int) (T, error)) ([][]T, error) {
	flat, err := RunCtx(ctx, outer*inner, func(j int) (T, error) {
		return fn(j/inner, j%inner)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, outer)
	for o := range out {
		out[o] = flat[o*inner : (o+1)*inner : (o+1)*inner]
	}
	return out, nil
}

package experiments

import (
	"context"
	"errors"
	"sync/atomic"

	"capsim/internal/flight"
	"capsim/internal/memo"
)

// Study rows: the unit of reuse, in process and across processes.
//
// Every heavy experiment driver decomposes into independent *rows* — one
// (application × configuration-family) profiling pass — fanned across the
// sweep pool. Each row goes through studyRow, which keys it on its kind plus
// the content of every input the computation reads (memo.Key: the full
// workload.Benchmark, not its name; cache and tech parameters with exact
// floats; policy rosters by their fields and types) and on modelEpoch. One
// in-process memo serves a row to every driver that asks for it — Figures
// 7-9, ablation-power and the paper-design half of ablation-increment share
// their ProfileCacheTPI passes without any store — and, with a study cache
// directory set (capsim -study-cache, SetStudyCacheDir), the row is also
// published to a persistent store (internal/memo.Store), one segment file
// per run, from which later processes load it instead of recomputing.
// Values go through memo's positional row codec, which writes float64s as
// their bits, so ±Inf, NaN and −0 round-trip exactly and the
// byte-identical-render contract survives the disk hop; an entry written
// for another layout of a row type is a miss.
//
// A key names what the row was computed from, never what code computed it:
// modelEpoch stands in for the code. It joins every key, and
// TestModelEpochPinsGoldens ties it to a digest of the pinned renders and
// streams, so a change that moves any pinned number must bump it, which
// turns every entry an older binary wrote into a plain miss.

// modelEpoch is the model version every study-row key carries: the first 16
// hex digits of the digest of internal/experiments/testdata/golden/ and
// internal/workload/testdata/streams.golden that TestModelEpochPinsGoldens
// computes. Regenerating a golden fails that test until this is updated.
const modelEpoch = "6a9b284a643deae0"

// studyStore is the process-wide persistent row store, nil when disabled.
var studyStore atomic.Pointer[memo.Store]

// studyRows is the in-process row memo, keyed like the store. SetStudyCacheCap
// bounds it and ResetCaches clears it.
var studyRows memo.Memo[string, any]

// SetStudyCacheDir backs the study-row memo tier with a persistent store
// rooted at dir (created if needed); "" disables persistence. The store it
// replaces publishes its pending rows. Safe to call concurrently with runs:
// rows started before the switch finish against the store they began with,
// which their run flushes.
func SetStudyCacheDir(dir string) error {
	var s *memo.Store
	if dir != "" {
		var err error
		if s, err = memo.OpenStore(dir); err != nil {
			return err
		}
	}
	studyStore.Swap(s).Flush() // a failed publish leaves the rows to a later run
	return nil
}

// studyRow returns the kind row computed by fn from inputs: from the
// in-process memo, else from the store, else by running fn (singleflight per
// key) and publishing the result. inputs must be everything fn's result
// depends on; a study row whose inputs cannot be keyed by content is a bug,
// and panics.
//
// A compute that failed with a context error is forgotten, not memoized:
// the cancellation belonged to whichever request computed the entry, not to
// the row. A caller whose own ctx is still live retries under its own fn; a
// caller whose ctx is done returns the error. Deterministic compute errors
// stay memoized (retrying cannot help) but are never persisted.
func studyRow[V any](ctx context.Context, kind string, fn func() (V, error), inputs ...any) (V, error) {
	content, ok := memo.Key(append([]any{modelEpoch}, inputs...)...)
	if !ok {
		panic("experiments: " + kind + " row inputs have no content key")
	}
	key := kind + "|" + content
	for {
		v, err := studyRows.Do(key, func() (any, error) {
			return memo.PersistDo(studyStore.Load(), key, fn)
		})
		if err == nil || (!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)) {
			return v.(V), err
		}
		studyRows.Forget(key)
		if ctx.Err() != nil {
			return v.(V), err
		}
	}
}

// recordedRow is studyRow for the kinds whose compute publishes flight
// columns (qtrace, qpolicy, zoo): under a recorder it runs fn fresh, past
// the memo and the store, so a recorded run records every column.
func recordedRow[V any](ctx context.Context, kind string, fn func() (V, error), inputs ...any) (V, error) {
	if flight.Active(ctx) {
		return fn()
	}
	return studyRow(ctx, kind, fn, inputs...)
}

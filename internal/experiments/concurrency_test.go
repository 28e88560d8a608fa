package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"capsim/internal/trace"
)

// TestConcurrentRunByteIdentical locks the experiment service's core safety
// claim: RunCtx invoked from many goroutines at once — the API server's
// steady state — renders byte-identically to a serial run. The reference
// pass computes each render, then the caches are reset so the concurrent
// pass re-executes the full compute (singleflighted) rather than replaying
// memo entries. Run with -race to certify the memory discipline of the
// shared study memos, trace stores, and sweep pools under request-level
// concurrency.
func TestConcurrentRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cache and queue studies twice")
	}
	cfg := fastConfig()
	cfg.CacheWarmRefs = 5_000
	cfg.CacheRefs = 20_000
	cfg.QueueInstrs = 10_000
	cfg.IntervalInstrs = 400

	// Mixed workload: two ids sharing the queue study, one cache-study id,
	// one pure-math id — requests for the same and different experiments
	// interleave, as they would against the API server.
	ids := []string{"fig10", "fig11", "fig9", "fig1a"}

	ref := map[string]string{}
	for _, id := range ids {
		res, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("reference %s: %v", id, err)
		}
		ref[id] = res.Render()
	}
	ResetCaches()

	const waves = 3 // each id requested by several goroutines at once
	var wg sync.WaitGroup
	var mu sync.Mutex
	got := map[string][]string{}
	for w := 0; w < waves; w++ {
		for _, id := range ids {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				res, err := RunCtx(context.Background(), id, cfg)
				if err != nil {
					t.Errorf("concurrent %s: %v", id, err)
					return
				}
				mu.Lock()
				got[id] = append(got[id], res.Render())
				mu.Unlock()
			}(id)
		}
	}
	wg.Wait()
	for _, id := range ids {
		if len(got[id]) != waves {
			t.Fatalf("%s: %d/%d concurrent runs succeeded", id, len(got[id]), waves)
		}
		for i, r := range got[id] {
			if r != ref[id] {
				t.Errorf("%s: concurrent render %d differs from serial reference", id, i)
			}
		}
	}
}

// TestRunCtxPreCancelled: a request that is already dead never starts.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, "fig1a", DefaultConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCancelledRunDoesNotPoisonMemo locks studyRow's contract: a request
// cancelled mid-profiling must not memoize its context error for the
// configuration — the next request with a live context re-runs the compute
// and succeeds. (Before that rule, the first cancelled request poisoned the
// study-cache key forever.)
func TestCancelledRunDoesNotPoisonMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a queue study")
	}
	cfg := fastConfig()
	cfg.QueueInstrs = 30_000
	ResetCaches()

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := RunCtx(ctx, "fig10", cfg)
	if err == nil {
		// The budget finished inside 1ms on this machine; nothing to
		// poison, nothing to assert.
		t.Skip("run completed before the deadline; cannot exercise poisoning")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want a context error", err)
	}

	res, err := RunCtx(context.Background(), "fig10", cfg)
	if err != nil {
		t.Fatalf("run after cancelled run: %v (memo poisoned)", err)
	}
	if len(res.Figures) == 0 && len(res.Tables) == 0 {
		t.Error("recovered run produced no output")
	}
}

// TestStudyCacheCapBoundsTraceTier locks the API server's memory bound: with
// SetStudyCacheCap(2), runs at four distinct seeds leave at most two
// instruction stores memoized — a server fed ever-new seeds must not keep
// every seed's streams for good — and capping changes no render.
func TestStudyCacheCapBoundsTraceTier(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ablation-combined at four seeds twice")
	}
	cfg := fastConfig()
	cfg.CacheWarmRefs = 5_000
	cfg.CacheRefs = 20_000
	cfg.QueueInstrs = 10_000
	seeds := []uint64{1, 2, 3, 4}

	render := func() []string {
		ResetCaches()
		var out []string
		for _, seed := range seeds {
			cfg.Seed = seed
			res, err := Run("ablation-combined", cfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			out = append(out, res.Render())
		}
		return out
	}
	uncapped := render()

	defer func() { SetStudyCacheCap(0); ResetCaches() }()
	SetStudyCacheCap(2)
	capped := render()
	for i := range seeds {
		if capped[i] != uncapped[i] {
			t.Errorf("seed %d: capped render differs from the uncapped one", seeds[i])
		}
	}
	if ops := trace.StoreCounts(); ops > 2 {
		t.Errorf("cap 2 left %d instruction stores memoized", ops)
	}
}

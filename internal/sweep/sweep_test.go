package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCollectsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 33} {
		got, err := RunNCtx(context.Background(), workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d]=%d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	got, err := RunNCtx(context.Background(), 4, 0, func(int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("empty run: %v %v", got, err)
	}
}

func TestRunLowestIndexedError(t *testing.T) {
	// Jobs 7 and 3 fail; the error from job 3 must be reported regardless of
	// completion order.
	for trial := 0; trial < 20; trial++ {
		_, err := RunNCtx(context.Background(), 4, 10, func(i int) (int, error) {
			if i == 7 || i == 3 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("trial %d: got error %v, want job 3's", trial, err)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	_, err := RunNCtx(context.Background(), workers, 64, func(i int) (struct{}, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent jobs, cap %d", p, workers)
	}
}

func TestRunNested(t *testing.T) {
	// A job may itself fan out; nesting must neither deadlock nor corrupt
	// result placement.
	got, err := RunNCtx(context.Background(), 4, 6, func(o int) ([]int, error) {
		return RunNCtx(context.Background(), 4, 5, func(i int) (int, error) { return o*10 + i, nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	for o, row := range got {
		for i, v := range row {
			if v != o*10+i {
				t.Fatalf("nested result[%d][%d]=%d", o, i, v)
			}
		}
	}
}

func TestGrid(t *testing.T) {
	m, err := GridCtx(context.Background(), 3, 4, func(o, i int) (int, error) { return o*100 + i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 {
		t.Fatalf("%d rows", len(m))
	}
	for o, row := range m {
		if len(row) != 4 {
			t.Fatalf("row %d: %d cols", o, len(row))
		}
		for i, v := range row {
			if v != o*100+i {
				t.Fatalf("grid[%d][%d]=%d", o, i, v)
			}
		}
	}
}

func TestGridError(t *testing.T) {
	want := errors.New("boom")
	if _, err := GridCtx(context.Background(), 2, 2, func(o, i int) (int, error) {
		if o == 1 && i == 1 {
			return 0, want
		}
		return 0, nil
	}); !errors.Is(err, want) {
		t.Fatalf("grid error %v", err)
	}
}

func TestDefaultWorkers(t *testing.T) {
	defer SetDefaultWorkers(0)
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("unset default %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetDefaultWorkers(3)
	if got := DefaultWorkers(); got != 3 {
		t.Errorf("default %d after Set(3)", got)
	}
	SetDefaultWorkers(-5)
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default %d after Set(-5), want GOMAXPROCS", got)
	}
}

// TestEach checks that RunCtx under a WithWorkers override runs every job
// index exactly once.
func TestEach(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	if _, err := RunCtx(WithWorkers(context.Background(), 4), 32, func(i int) (struct{}, error) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if seen[i] != 1 {
			t.Fatalf("job %d ran %d times, want once", i, seen[i])
		}
	}
}

// TestRunAbortsAfterError locks the early-abort bugfix: once a job fails, the
// pool must stop claiming higher-indexed jobs instead of burning CPU on the
// whole remaining grid. Job 0 fails immediately while every other job sleeps
// briefly, so by the time the sleepers finish their first claim the abort is
// visible and all later claims are skipped.
func TestRunAbortsAfterError(t *testing.T) {
	const n = 1000
	var ran atomic.Int64
	_, err := RunNCtx(context.Background(), 4, n, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, fmt.Errorf("job 0 failed")
		}
		time.Sleep(2 * time.Millisecond)
		return i, nil
	})
	if err == nil || err.Error() != "job 0 failed" {
		t.Fatalf("error %v, want job 0's", err)
	}
	if got := ran.Load(); got >= n/2 {
		t.Errorf("%d of %d jobs ran after an immediate failure; abort did not take", got, n)
	}
}

// TestRunErrorDeterministicUnderAbort locks the determinism half of the
// early-abort contract: even though the pool skips jobs above the lowest
// observed failing index, the *returned* error must always be the
// lowest-indexed one — jobs below the current minimum keep running precisely
// so a lower-indexed failure can still surface.
func TestRunErrorDeterministicUnderAbort(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		for _, workers := range []int{2, 4, 8} {
			_, err := RunNCtx(context.Background(), workers, 64, func(i int) (int, error) {
				switch i {
				case 3, 7, 40:
					return 0, fmt.Errorf("job %d failed", i)
				}
				return i, nil
			})
			if err == nil || err.Error() != "job 3 failed" {
				t.Fatalf("trial %d workers %d: got %v, want job 3's error", trial, workers, err)
			}
		}
	}
}

// TestRunCtxCancelStopsClaiming proves a cancelled context stops the pool
// from claiming new jobs: cancel fires after the first few jobs start, and
// far fewer than n jobs may run.
func TestRunCtxCancelStopsClaiming(t *testing.T) {
	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	started := make(chan struct{}, n)
	go func() {
		<-started
		cancel()
	}()
	_, err := RunNCtx(ctx, 4, n, func(i int) (int, error) {
		ran.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		time.Sleep(2 * time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= n/2 {
		t.Errorf("%d of %d jobs ran after cancellation", got, n)
	}
}

// TestRunCtxSerialCancel covers the workers=1 path: the serial loop must
// check the context between jobs.
func TestRunCtxSerialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	_, err := RunNCtx(ctx, 1, 100, func(i int) (int, error) {
		ran++
		if i == 2 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Errorf("serial path ran %d jobs after cancel at job 2, want 3", ran)
	}
}

// TestRunCtxPreCancelled: a context that is already done runs nothing.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := RunNCtx(ctx, 4, 10, func(i int) (int, error) { ran.Add(1); return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d jobs ran under a pre-cancelled context", ran.Load())
	}
}

// TestRunCtxCompletedRunIgnoresLateCancel: if every job finished, the run
// returns its results even when the context is cancelled afterwards —
// mirroring a serial loop that completes its final iteration.
func TestRunCtxCompletedRunIgnoresLateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	got, err := RunNCtx(ctx, 4, 50, func(i int) (int, error) { return i * 2, nil })
	cancel()
	if err != nil {
		t.Fatalf("completed run reported %v", err)
	}
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("result[%d]=%d", i, v)
		}
	}
}

// TestWithWorkers checks the per-context worker override used by the API
// server's `parallel` request field.
func TestWithWorkers(t *testing.T) {
	SetDefaultWorkers(8)
	defer SetDefaultWorkers(0)
	ctx := WithWorkers(context.Background(), 2)
	var cur, peak atomic.Int32
	_, err := RunCtx(ctx, 64, func(i int) (struct{}, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("observed %d concurrent jobs, override cap 2", p)
	}
	if Workers(context.Background()) != 8 {
		t.Errorf("plain context did not fall back to the process default")
	}
	if Workers(WithWorkers(context.Background(), -3)) != 8 {
		t.Errorf("negative override did not fall back to the process default")
	}
}

// TestRunDeterministicUnderRace hammers the pool with shared-free jobs so the
// race detector can certify the result-collection path.
func TestRunDeterministicUnderRace(t *testing.T) {
	base, err := RunNCtx(context.Background(), 1, 257, func(i int) (uint64, error) {
		x := uint64(i) * 0x9e3779b97f4a7c15
		x ^= x >> 29
		return x, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 7, 16} {
		got, err := RunNCtx(context.Background(), w, 257, func(i int) (uint64, error) {
			x := uint64(i) * 0x9e3779b97f4a7c15
			x ^= x >> 29
			return x, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: result[%d] differs from serial", w, i)
			}
		}
	}
}

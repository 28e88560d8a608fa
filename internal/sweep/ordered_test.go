package sweep

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderedEmitsInIndexOrder: jobs that finish in reverse order are still
// emitted 0, 1, 2, ..., each after its own job and every earlier one have
// finished, and each emit sees what its job wrote.
func TestOrderedEmitsInIndexOrder(t *testing.T) {
	const n = 8
	for _, workers := range []int{1, 2, n} {
		vals := make([]int, n)
		var finished [n]atomic.Bool
		var order []int
		err := OrderedCtx(context.Background(), workers, n, func(_ context.Context, i int) error {
			time.Sleep(time.Duration(n-i) * time.Millisecond) // later jobs finish first
			vals[i] = i * i
			finished[i].Store(true)
			return nil
		}, func(i int) {
			for j := 0; j <= i; j++ {
				if !finished[j].Load() {
					t.Errorf("workers=%d: emit %d before job %d finished", workers, i, j)
				}
			}
			if vals[i] != i*i {
				t.Errorf("workers=%d: emit %d sees %d, want %d", workers, i, vals[i], i*i)
			}
			order = append(order, i) // emits never overlap
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(order, want) {
			t.Errorf("workers=%d: emitted %v, want %v", workers, order, want)
		}
	}
}

// TestOrderedSerialInterleaves: one worker runs job i's emit before job i+1
// starts, so a one-worker pass is strictly serial.
func TestOrderedSerialInterleaves(t *testing.T) {
	var log []string
	err := OrderedCtx(context.Background(), 1, 3, func(_ context.Context, i int) error {
		log = append(log, fmt.Sprint("run ", i))
		return nil
	}, func(i int) { log = append(log, fmt.Sprint("emit ", i)) })
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"run 0", "emit 0", "run 1", "emit 1", "run 2", "emit 2"}
	if !slices.Equal(log, want) {
		t.Errorf("log %q, want %q", log, want)
	}
}

// TestOrderedErrorAfterEarlierEmits: job 2 fails while jobs 3 and 4 are in
// flight. Jobs 0 and 1 are emitted, nothing from 2 on is, job 2's error is
// returned, and the jobs in flight see their context cancelled.
func TestOrderedErrorAfterEarlierEmits(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		var mu sync.Mutex
		var emitted []int
		started := make(chan struct{}, 2)
		var cancelled atomic.Int32
		err := OrderedCtx(context.Background(), 3, 10, func(ctx context.Context, i int) error {
			switch {
			case i == 2:
				<-started // fail only once jobs 3 and 4 are running
				<-started
				return fmt.Errorf("job %d failed", i)
			case i >= 3:
				started <- struct{}{}
				select {
				case <-ctx.Done():
					cancelled.Add(1)
					return ctx.Err()
				case <-time.After(10 * time.Second):
					return nil
				}
			}
			return nil
		}, func(i int) {
			mu.Lock()
			emitted = append(emitted, i)
			mu.Unlock()
		})
		if err == nil || err.Error() != "job 2 failed" {
			t.Fatalf("trial %d: error %v, want job 2's", trial, err)
		}
		if !slices.Equal(emitted, []int{0, 1}) {
			t.Fatalf("trial %d: emitted %v, want [0 1]", trial, emitted)
		}
		if c := cancelled.Load(); c != 2 {
			t.Fatalf("trial %d: %d of the 2 jobs in flight saw cancellation", trial, c)
		}
	}
}

// TestOrderedBoundsConcurrency: no more than workers jobs are ever in
// flight, and one worker runs one job at a time.
func TestOrderedBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		var cur, peak atomic.Int32
		err := OrderedCtx(context.Background(), workers, 48, func(_ context.Context, i int) error {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			cur.Add(-1)
			return nil
		}, func(int) {})
		if err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > int32(workers) || workers == 1 && p != 1 {
			t.Errorf("workers=%d: %d jobs in flight at once", workers, p)
		}
	}
}

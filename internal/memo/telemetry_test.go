package memo

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"capsim/internal/obs"
)

// awaitInOnce yields (never sleeps) until n goroutines are inside a sync.Once
// slow path. A Do caller gets there only after reading its entry's settled
// flag, so each such caller counts as the computation or as a singleflight
// wait, never as a settled hit.
func awaitInOnce(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for strings.Count(string(buf[:runtime.Stack(buf, true)]), "sync.(*Once).doSlow") < n {
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d goroutines reached a sync.Once", n)
		}
		runtime.Gosched()
	}
}

// memoDelta is what one phase of Do calls added to the memo instruments.
type memoDelta struct{ hits, misses, waits int64 }

func memoDiff(after, before obs.Snapshot) memoDelta {
	c := after.DiffCounters(before)
	return memoDelta{
		hits:   c["memo.hits"],
		misses: c["memo.misses"],
		waits:  after.Histograms["memo.wait_ns"].Count - before.Histograms["memo.wait_ns"].Count,
	}
}

// TestDoTelemetry pins Do's instrument gate. With the registry live, the
// computing call counts a miss, a caller blocked on that in-flight
// computation counts a hit plus one memo.wait_ns sample, and a call on the
// settled entry counts a plain hit. With the registry off, nothing moves.
func TestDoTelemetry(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	for _, on := range []bool{true, false} {
		obs.SetEnabled(on)
		var m Memo[int, int]
		computing, release := make(chan struct{}), make(chan struct{})
		got := make(chan int, 2)

		before := obs.TakeSnapshot()
		go func() {
			got <- m.Get(1, func() int { close(computing); <-release; return 7 })
		}()
		<-computing
		go func() {
			got <- m.Get(1, func() int { t.Error("waiter ran fn"); return 0 })
		}()
		awaitInOnce(t, 2) // the computation and the blocked waiter
		close(release)
		if a, b := <-got, <-got; a != 7 || b != 7 {
			t.Fatalf("obs %v: got %d and %d, want 7", on, a, b)
		}
		inflight := obs.TakeSnapshot()
		if v := m.Get(1, func() int { t.Error("settled entry ran fn"); return 0 }); v != 7 {
			t.Fatalf("obs %v: settled Get = %d", on, v)
		}
		settled := obs.TakeSnapshot()

		wantInflight, wantSettled := memoDelta{hits: 1, misses: 1, waits: 1}, memoDelta{hits: 1}
		if !on {
			wantInflight, wantSettled = memoDelta{}, memoDelta{}
		}
		if d := memoDiff(inflight, before); d != wantInflight {
			t.Errorf("obs %v: computation + wait added %+v, want %+v", on, d, wantInflight)
		}
		if d := memoDiff(settled, inflight); d != wantSettled {
			t.Errorf("obs %v: settled call added %+v, want %+v", on, d, wantSettled)
		}
	}
}

package trace

import (
	"runtime"
	"sync"
	"testing"

	"capsim/internal/workload"
)

// TestEnabledResetRace exercises the lifecycle contract under the race
// detector: goroutines replay instruction cursors while another thread
// calls Reset and toggles the store cap. The contract (see the package doc)
// says a cursor taken before a Reset or a cap eviction keeps replaying its
// orphaned store consistently — so every replayed value must still be
// bit-identical to a private generator, no matter how the lifecycle calls
// interleave.
func TestEnabledResetRace(t *testing.T) {
	defer func() { SetStoreCap(0); Reset() }()
	Reset()

	b := bench(t, "gcc")
	const perCursor = ChunkLen + ChunkLen/2

	var wg sync.WaitGroup
	start := make(chan struct{})

	// Replayers: each takes fresh stores/cursors (racing with Reset means
	// some get memo hits, some get fresh stores) and checks content.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			<-start
			ops, opGen := OpsFor(b, seed).Cursor(), workload.NewInstrStream(b, seed)
			for i := 0; i < perCursor; i++ {
				if ops.Next() != opGen.Next() {
					t.Errorf("op %d diverged from its generator", i)
					return
				}
			}
		}(uint64(100 + w))
	}

	// Lifecycle churn: Reset and cap squeeze.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 200; i++ {
			if i%10 == 0 {
				Reset()
			}
			if i%3 == 0 {
				SetStoreCap(1)
			} else {
				SetStoreCap(0)
			}
			_ = StoreCounts()
			runtime.Gosched()
		}
	}()

	close(start)
	wg.Wait()
}

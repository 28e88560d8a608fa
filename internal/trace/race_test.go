package trace

import (
	"sync"
	"testing"

	"capsim/internal/workload"
)

// TestEnabledResetRace exercises the lifecycle contract under the race
// detector: goroutines replay ref/op/decoded cursors while another thread
// calls Reset and toggles the byte budget. The contract (see the package
// doc) says a cursor taken before a Reset keeps replaying its orphaned store
// consistently — so every replayed value must still be bit-identical to a
// private generator, no matter how the lifecycle calls interleave.
func TestEnabledResetRace(t *testing.T) {
	defer func() { SetBudget(0); Reset() }()
	Reset()

	b := bench(t, "gcc")
	g := Geometry{BlockBytes: 32, Sets: 128}
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
			refs, refGen := RefsFor(b, seed).Cursor(), workload.NewAddressTrace(b, seed)
			for i := 0; i < perCursor; i++ {
				if refs.Next() != refGen.Next() {
					t.Errorf("ref %d diverged from its generator", i)
					return
				}
			}
			ops, opGen := OpsFor(b, seed).Cursor(), workload.NewInstrStream(b, seed)
			for i := 0; i < perCursor; i++ {
				if ops.Next() != opGen.Next() {
					t.Errorf("op %d diverged from its generator", i)
					return
				}
			}
			s := RefsFor(b, seed)
			dec := DecodedFor(s, g).Cursor()
			ref := s.Cursor()
			for i := 0; i < perCursor; i++ {
				r := ref.Next()
				set, tag, write := dec.NextDecoded()
				wantSet, wantTag := DecodedFor(s, g).Decode(r.Addr)
				if set != wantSet || tag != wantTag || write != r.Write {
					t.Errorf("decoded ref %d inconsistent with its source", i)
					return
				}
			}
		}(uint64(100 + w))
	}

	// Lifecycle churn: Reset and budget squeeze.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 200; i++ {
			if i%10 == 0 {
				Reset()
			}
			if i%3 == 0 {
				SetBudget(int64(1 + i*1024))
			} else {
				SetBudget(0)
			}
			_ = TotalBytes()
			_ = TotalRawBytes()
		}
	}()

	close(start)
	wg.Wait()
}

package experiments

import (
	"context"
	"sync"
	"testing"

	"capsim/internal/flight"
)

// checkSink runs flight.CheckRun on every column a collector publishes and
// keeps the first failure.
type checkSink struct {
	mu    sync.Mutex
	kinds map[string]int
	err   error
}

func (s *checkSink) WriteRun(_ int64, meta flight.RunMeta, events []flight.Event, end flight.RunEnd) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kinds[meta.Kind]++
	if err := flight.CheckRun(meta, events, end); err != nil && s.err == nil {
		s.err = err
	}
	return nil
}

func (s *checkSink) WriteProgress(flight.Progress) error { return nil }

// TestRecordedColumnsCheck records every experiment that publishes flight
// columns at the test budgets and checks each published column against the
// ledger invariants (flight.CheckRun): exact time sums, regret accounting and
// the end summary. Each experiment must publish the column kind it exists
// for: fig12 and fig13 their per-size traces, the others their policy races.
func TestRecordedColumnsCheck(t *testing.T) {
	cfg := goldenConfig()
	for _, tc := range []struct{ id, kind string }{
		{"fig12", flight.KindTrace},
		{"fig13", flight.KindTrace},
		{"ablation-interval", flight.KindRace},
		{"ablation-switch", flight.KindRace},
		{"zoo", flight.KindRace},
	} {
		id := tc.id
		sink := &checkSink{kinds: map[string]int{}}
		ctx := flight.WithCollector(context.Background(), flight.NewCollector(sink))
		if _, err := RunCtx(ctx, id, cfg); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if sink.err != nil {
			t.Errorf("%s: %v", id, sink.err)
		}
		if sink.kinds[tc.kind] == 0 {
			t.Errorf("%s published %v, want a %s column", id, sink.kinds, tc.kind)
		}
	}
}

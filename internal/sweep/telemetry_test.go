package sweep

import (
	"context"
	"testing"
	"time"

	"capsim/internal/obs"
)

// TestRunNCtxTelemetry pins RunNCtx's instrument gate: with the registry
// live, an n-job pass adds exactly n to sweep.jobs and a positive time to
// sweep.busy_ns at 1 and at 4 workers; with it off, the same pass adds
// nothing to either.
func TestRunNCtxTelemetry(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	const n = 12
	for _, on := range []bool{true, false} {
		obs.SetEnabled(on)
		for _, workers := range []int{1, 4} {
			before := obs.TakeSnapshot()
			if _, err := RunNCtx(context.Background(), workers, n, func(i int) (int, error) {
				time.Sleep(time.Microsecond) // each job takes measurable time
				return i, nil
			}); err != nil {
				t.Fatal(err)
			}
			d := obs.TakeSnapshot().DiffCounters(before)
			jobs, busy := d["sweep.jobs"], d["sweep.busy_ns"]
			if on && (jobs != n || busy <= 0) {
				t.Errorf("obs on, %d workers: sweep.jobs +%d (want %d), sweep.busy_ns +%d (want > 0)", workers, jobs, n, busy)
			}
			if !on && (jobs != 0 || busy != 0) {
				t.Errorf("obs off, %d workers: sweep.jobs +%d, sweep.busy_ns +%d, want 0", workers, jobs, busy)
			}
		}
	}
}

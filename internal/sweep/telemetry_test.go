package sweep

import (
	"context"
	"testing"

	"capsim/internal/obs"
)

// TestRunNCtxTelemetry pins RunNCtx's instrument gate: with the registry
// live, an n-job pass adds exactly n to sweep.jobs at 1 and at 4 workers;
// with it off, the same pass adds nothing.
func TestRunNCtxTelemetry(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	const n = 12
	for _, on := range []bool{true, false} {
		obs.SetEnabled(on)
		for _, workers := range []int{1, 4} {
			before := obs.TakeSnapshot()
			if _, err := RunNCtx(context.Background(), workers, n, func(i int) (int, error) {
				return i, nil
			}); err != nil {
				t.Fatal(err)
			}
			jobs := obs.TakeSnapshot().DiffCounters(before)["sweep.jobs"]
			if on && jobs != n {
				t.Errorf("obs on, %d workers: sweep.jobs +%d, want %d", workers, jobs, n)
			}
			if !on && jobs != 0 {
				t.Errorf("obs off, %d workers: sweep.jobs +%d, want 0", workers, jobs)
			}
		}
	}
}

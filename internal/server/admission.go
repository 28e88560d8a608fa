package server

import (
	"context"
	"errors"
	"time"
)

// ErrBusy is returned by admission.acquire when every run slot is occupied
// and the queue-wait budget expires; handlers map it to HTTP 429.
var ErrBusy = errors.New("server: too many runs in flight")

// admission is the server's bounded in-flight controller: a counting
// semaphore over experiment executions plus a queue-wait budget. An
// experiment run can occupy every core for seconds, so unbounded concurrency
// would not make requests finish sooner — it would thrash the sweep pools
// and grow memory with materialized instruction stores and study rows.
// Instead, at most `inFlight` runs execute at once; a request that cannot
// be admitted within `maxWait` is rejected with ErrBusy so the client can
// back off and retry (HTTP 429), which is cheaper for everyone than
// queueing unboundedly.
type admission struct {
	slots   chan struct{}
	maxWait time.Duration
}

// newAdmission builds a controller with `inFlight` slots (min 1) and the
// given queue-wait budget (<= 0 means reject immediately when full).
func newAdmission(inFlight int, maxWait time.Duration) *admission {
	if inFlight < 1 {
		inFlight = 1
	}
	return &admission{slots: make(chan struct{}, inFlight), maxWait: maxWait}
}

// acquire takes a run slot: immediately if one is free, otherwise waiting up
// to the queue-wait budget. It returns ErrBusy when the budget expires and
// ctx.Err() when the request is cancelled while queued. Every successful
// acquire must be paired with release.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	if a.maxWait <= 0 {
		return ErrBusy
	}
	t := time.NewTimer(a.maxWait)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-t.C:
		return ErrBusy
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a slot taken by acquire.
func (a *admission) release() { <-a.slots }

// inUse reports the currently occupied slot count (telemetry/health only).
func (a *admission) inUse() int { return len(a.slots) }

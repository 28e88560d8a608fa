package obs

import (
	"fmt"
	"sync/atomic"
)

// This file is the -obs-assert switch: opt-in runtime self-checks that the
// instrumented simulators call at coarse boundaries (end of a Run, a Resize,
// a profile pass). The checks themselves live next to the state they verify
// (ooo.Core.CheckInvariants, cache CheckExclusive); this package only owns
// the switch and the failure funnel, so turning assertions on never adds a
// dependency edge from the simulators to anything but obs.

// assertOn gates the self-checks; default off (zero value).
var assertOn atomic.Bool

// SetAssert enables or disables runtime invariant self-checks process-wide
// (cmd/capsim -obs-assert).
func SetAssert(v bool) { assertOn.Store(v) }

// AssertEnabled reports whether self-checks are active.
func AssertEnabled() bool { return assertOn.Load() }

// assertFailures counts tripped assertions (visible in the manifest and the
// live endpoint, and usable by tests to observe a failure without a panic).
var assertFailures = NewCounter("obs.assert_failures")

// AssertFailures returns the number of assertion failures recorded so far.
func AssertFailures() int64 { return assertFailures.Value() }

// Fail records an assertion failure and panics with a descriptive message.
// Callers invoke it only under AssertEnabled, with the already-detected
// error — assertions are for catching impossible states during bring-up and
// A/B runs, so failing loudly is the point.
func Fail(err error) {
	// Count even when metric recording is off: an assertion tripping is
	// precisely the event the counter exists for.
	assertFailures.v.Add(1)
	panic(fmt.Sprintf("obs: assertion failed: %v", err))
}

package ooo

import (
	"strings"
	"testing"

	"capsim/internal/obs"
	"capsim/internal/workload"
)

// runSome drives a small core a few hundred instructions so the invariant
// checks see a realistic mid-flight state.
func runSome(t *testing.T, scan bool) *Core {
	t.Helper()
	c, err := newCore(PaperConfig(32), scan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	c.Run(workload.NewInstrStream(b, 1), 500)
	return c
}

func TestCheckInvariantsCleanBothEngines(t *testing.T) {
	for _, scan := range []bool{scanEngine, eventEngine} {
		c := runSome(t, scan)
		if err := c.CheckInvariants(); err != nil {
			t.Errorf("%s engine: clean core failed invariants: %v", engineName(scan), err)
		}
	}
}

// mustTrip asserts that CheckInvariants reports an error containing want.
func mustTrip(t *testing.T, c *Core, want string) {
	t.Helper()
	err := c.CheckInvariants()
	if err == nil {
		t.Fatalf("corruption not detected (want %q)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func TestCheckInvariantsTripsIssuedExceedsDispatched(t *testing.T) {
	c := runSome(t, eventEngine)
	c.stats.Issued = c.stats.Instrs + 1
	mustTrip(t, c, "exceeds dispatched")
}

func TestCheckInvariantsTripsNegativeStat(t *testing.T) {
	c := runSome(t, scanEngine)
	c.stats.Cycles = -1
	mustTrip(t, c, "negative statistic")
}

func TestCheckInvariantsTripsDrainStalls(t *testing.T) {
	c := runSome(t, scanEngine)
	c.stats.DrainStalls = c.stats.Cycles + 1
	mustTrip(t, c, "drain stalls")
}

func TestCheckInvariantsTripsOccupancy(t *testing.T) {
	c := runSome(t, eventEngine)
	c.ev.occ = c.cfg.WindowSize + 1
	mustTrip(t, c, "occupancy")
}

func TestCheckInvariantsTripsRingShape(t *testing.T) {
	c := runSome(t, scanEngine)
	c.done = c.done[:len(c.done)-1] // no longer a power of two
	mustTrip(t, c, "power of two")

	c = runSome(t, scanEngine)
	c.mask = 7 // inconsistent with the ring length
	mustTrip(t, c, "mask")

	c = runSome(t, scanEngine)
	c.done = make([]int64, 2)
	c.mask = 1 // power of two but far below ringSize(window)
	mustTrip(t, c, "below requirement")
}

func TestCheckInvariantsTripsRingGrowthMonotonicity(t *testing.T) {
	c := runSome(t, eventEngine)
	c.pubTal.ringGrows = c.tal.ringGrows + 1
	mustTrip(t, c, "backwards")
}

func TestCheckInvariantsTripsSlotLeak(t *testing.T) {
	c := runSome(t, eventEngine)
	c.ev.free = c.ev.free[:0]
	if len(c.ev.free)+c.ev.occ == len(c.ev.slots) {
		t.Skip("window exactly full; cannot fabricate a leak this way")
	}
	mustTrip(t, c, "slot leak")
}

func TestCheckInvariantsTripsReadyOverflow(t *testing.T) {
	c := runSome(t, eventEngine)
	for i := 0; i <= c.cfg.WindowSize; i++ {
		c.ev.eligible = append(c.ev.eligible, int64(i))
	}
	mustTrip(t, c, "exceed occupancy")
}

// TestAssertCheckFailsThroughObs verifies the -obs-assert funnel: with the
// switch on, a corrupted core panics via obs.Fail and bumps the failure
// counter; with it off, assertCheck is a no-op.
func TestAssertCheckFailsThroughObs(t *testing.T) {
	c := runSome(t, eventEngine)
	c.stats.Issued = c.stats.Instrs + 1

	prev := obs.AssertEnabled()
	defer obs.SetAssert(prev)

	obs.SetAssert(false)
	c.assertCheck() // must not panic

	obs.SetAssert(true)
	before := obs.AssertFailures()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("assertCheck did not panic with -obs-assert on")
			}
		}()
		c.assertCheck()
	}()
	if got := obs.AssertFailures(); got != before+1 {
		t.Fatalf("assert failure counter %d, want %d", got, before+1)
	}
}

// TestPublishObsDeltas verifies PublishObs ships deltas, not totals: two
// consecutive publishes after one run must add the run's stats exactly once.
func TestPublishObsDeltas(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	base := obsIssued.Value()
	c := runSome(t, eventEngine)
	c.PublishObs()
	c.PublishObs() // second publish: zero delta
	if got, want := obsIssued.Value()-base, c.stats.Issued; got != want {
		t.Fatalf("published issued delta %d, want %d", got, want)
	}
	if obsWakeups.Value() == 0 {
		t.Fatal("event engine published no wakeups")
	}
}

package ooo

import (
	"strings"
	"testing"

	"capsim/internal/obs"
	"capsim/internal/workload"
)

// runSome drives a small core a few hundred instructions so the invariant
// checks see a realistic mid-flight state.
func runSome(t *testing.T) *Core {
	t.Helper()
	b, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	c := MustNew(PaperConfig(32))
	c.Run(workload.NewInstrStream(b, 1), 500)
	return c
}

func TestCheckInvariantsClean(t *testing.T) {
	b, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	c := MustNew(PaperConfig(32))
	s := workload.NewInstrStream(b, 1)
	check := func(when string) {
		t.Helper()
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("after %s: clean core failed invariants: %v", when, err)
		}
	}
	c.Run(s, 500)
	check("run")
	c.Drain(3)
	check("drain")
	if err := c.Resize(128); err != nil {
		t.Fatal(err)
	}
	c.RunWithLoads(s, 2000, 0.4, (&lcg{x: 3}).memLat)
	check("loads")
	if err := c.Resize(16); err != nil {
		t.Fatal(err)
	}
	check("shrink")
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
	c := runSome(t)
	c.stats.Issued = c.stats.Instrs + 1
	mustTrip(t, c, "exceeds dispatched")
}

func TestCheckInvariantsTripsNegativeStat(t *testing.T) {
	c := runSome(t)
	c.stats.Cycles = -1
	mustTrip(t, c, "negative statistic")
}

func TestCheckInvariantsTripsDrainStalls(t *testing.T) {
	c := runSome(t)
	c.stats.DrainStalls = c.stats.Cycles + 1
	mustTrip(t, c, "drain stalls")
}

func TestCheckInvariantsTripsOccupancy(t *testing.T) {
	c := runSome(t)
	c.occ = c.cfg.WindowSize + 1
	mustTrip(t, c, "occupancy")
}

func TestCheckInvariantsTripsRingShape(t *testing.T) {
	c := runSome(t)
	c.done = c.done[:len(c.done)-1] // no longer a power of two
	mustTrip(t, c, "power of two")

	c = runSome(t)
	c.mask = 7 // inconsistent with the ring length
	mustTrip(t, c, "mask")

	c = runSome(t)
	c.done = make([]int64, 2)
	c.mask = 1 // power of two but far below ringSize(window)
	mustTrip(t, c, "below requirement")
}

func TestCheckInvariantsTripsRingGrowthMonotonicity(t *testing.T) {
	c := runSome(t)
	c.pubTal.ringGrows = c.tal.ringGrows + 1
	mustTrip(t, c, "backwards")
}

func TestCheckInvariantsTripsSlotPopulation(t *testing.T) {
	c := runSome(t)
	c.slots[(c.cycle+1)&c.slotMask]++ // an issue count no instruction holds
	mustTrip(t, c, "population")
}

func TestCheckInvariantsTripsSlotOverWidth(t *testing.T) {
	c := runSome(t)
	c.slots[(c.cycle+1)&c.slotMask] = int32(c.cfg.IssueWidth + 1)
	mustTrip(t, c, "outside [0,8]")
}

// TestPublishObsDeltas verifies PublishObs ships deltas, not totals: two
// consecutive publishes after one run must add the run's stats exactly once.
func TestPublishObsDeltas(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	issued0, cycles0 := obsIssued.Value(), obsCycles.Value()
	c := runSome(t)
	c.PublishObs()
	c.PublishObs() // second publish: zero delta
	if got, want := obsIssued.Value()-issued0, c.stats.Issued; got != want {
		t.Fatalf("published issued delta %d, want %d", got, want)
	}
	if got, want := obsCycles.Value()-cycles0, c.stats.Cycles; got != want {
		t.Fatalf("published cycles delta %d, want %d", got, want)
	}
}

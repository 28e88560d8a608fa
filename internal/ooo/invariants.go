package ooo

import (
	"fmt"

	"capsim/internal/obs"
)

// CheckInvariants verifies the core's structural invariants and returns the
// first violation found, or nil. It is pure read-only and engine-aware.
//
// The checks cover the simulator's accounting identities (issued never
// exceeds dispatched, no negative statistics), the window (occupancy within
// [0, WindowSize]), the completion ring (power-of-two length, never below
// the configured window's requirement, growth strictly monotone — growRing
// only ever enlarges), and, for the event engine, slot conservation
// (free + occupied == slab) and the ready-structure population bound
// (eligible + calendar + far heap entries never exceed occupancy).
func (c *Core) CheckInvariants() error {
	s := c.stats
	if s.Issued > s.Instrs {
		return fmt.Errorf("ooo: issued %d exceeds dispatched %d", s.Issued, s.Instrs)
	}
	if s.Cycles < 0 || s.Instrs < 0 || s.Issued < 0 || s.DrainStalls < 0 || s.WindowFullCy < 0 {
		return fmt.Errorf("ooo: negative statistic in %+v", s)
	}
	if s.DrainStalls > s.Cycles {
		return fmt.Errorf("ooo: drain stalls %d exceed cycles %d", s.DrainStalls, s.Cycles)
	}
	if occ := c.Occupancy(); occ < 0 || occ > c.cfg.WindowSize {
		return fmt.Errorf("ooo: occupancy %d outside [0,%d]", occ, c.cfg.WindowSize)
	}
	n := len(c.done)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("ooo: completion ring length %d not a power of two", n)
	}
	if c.mask != int64(n-1) {
		return fmt.Errorf("ooo: ring mask %#x inconsistent with length %d", c.mask, n)
	}
	if need := ringSize(c.cfg.WindowSize); n < need {
		return fmt.Errorf("ooo: ring length %d below requirement %d for window %d", n, need, c.cfg.WindowSize)
	}
	if c.tal.ringGrows < c.pubTal.ringGrows {
		return fmt.Errorf("ooo: ring growth count moved backwards (%d < %d)", c.tal.ringGrows, c.pubTal.ringGrows)
	}
	if !c.scan {
		ev := &c.ev
		if len(ev.free)+ev.occ != len(ev.slots) {
			return fmt.Errorf("ooo: slot leak: free %d + occupied %d != slab %d", len(ev.free), ev.occ, len(ev.slots))
		}
		ready := len(ev.eligible) + len(ev.far)
		for b := range ev.near {
			ready += len(ev.near[b])
		}
		if ready > ev.occ {
			return fmt.Errorf("ooo: %d ready-structure entries exceed occupancy %d", ready, ev.occ)
		}
	}
	return nil
}

// assertCheck runs CheckInvariants when -obs-assert is active, funnelling any
// violation through obs.Fail (which counts it and panics). Called at coarse
// boundaries — after a Run and around Resize — so the O(window) scan never
// sits on a per-cycle path.
func (c *Core) assertCheck() {
	if !obs.AssertEnabled() {
		return
	}
	if err := c.CheckInvariants(); err != nil {
		obs.Fail(err)
	}
}

package ooo

import "fmt"

// CheckInvariants verifies the core's structural invariants and returns the
// first violation found, or nil. It is pure read-only.
//
// The checks cover the simulator's accounting identities (issued never
// exceeds dispatched, no negative statistics), the window (occupancy within
// [0, WindowSize]), the completion ring (power-of-two length, never below
// the configured window's requirement, growth strictly monotone — growRing
// only ever enlarges), and the issue-count ring: its population equals
// occupancy (every dispatched, unissued instruction holds exactly one count
// at a cycle not yet reached) and no cycle's count exceeds IssueWidth.
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
	if occ := c.occ; occ < 0 || occ > c.cfg.WindowSize {
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
	pop := int64(0)
	for t, k := range c.slots {
		if k < 0 || k > int32(c.cfg.IssueWidth) {
			return fmt.Errorf("ooo: issue count %d at ring slot %d outside [0,%d]", k, t, c.cfg.IssueWidth)
		}
		pop += int64(k)
	}
	if pop != int64(c.occ) {
		return fmt.Errorf("ooo: issue-count population %d != occupancy %d", pop, c.occ)
	}
	return nil
}

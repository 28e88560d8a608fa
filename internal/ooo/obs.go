package ooo

import "capsim/internal/obs"

// Telemetry (internal/obs). The per-cycle and per-instruction paths are not
// instrumented with atomics: the core keeps plain tally fields (below,
// embedded in Core) that are incremented unconditionally — deterministic and
// a few cycles each — and PublishObs ships the deltas to the global counters
// at coarse boundaries (end of a Run window, a profile pass, an interval).
var (
	obsInstrs   = obs.NewCounter("ooo.instrs")       // instructions dispatched
	obsIssued   = obs.NewCounter("ooo.issued")       // instructions issued
	obsCycles   = obs.NewCounter("ooo.cycles")       // cycles simulated
	obsIdleSkip = obs.NewCounter("ooo.idle_skipped") // stall cycles fast-forwarded
)

// tallies are the core's plain structural event counts the local Stats
// struct does not carry. They are updated unconditionally on their (already
// branchy) paths. idleSkipped is published as a delta; ringGrows is read only
// by CheckInvariants, which checks it never moves backwards.
type tallies struct {
	ringGrows   int64 // monotone: growRing only ever enlarges the ring
	idleSkipped int64 // stall cycles fast-forwarded by idleSkip
}

// PublishObs publishes the statistics and idle-skip tally accumulated since
// the previous publish. Call at coarse boundaries only. The delta baselines
// advance even while obs is disabled, so enabling telemetry mid-process never
// attributes old work to the next experiment.
func (c *Core) PublishObs() {
	ds := c.stats.Sub(c.pubStats)
	skipped := c.tal.idleSkipped - c.pubTal.idleSkipped
	c.pubStats, c.pubTal = c.stats, c.tal
	obsInstrs.Add(ds.Instrs)
	obsIssued.Add(ds.Issued)
	obsCycles.Add(ds.Cycles)
	obsIdleSkip.Add(skipped)
}

// PublishObs publishes every member core's deltas (the one-pass queue
// profiling path drives all window sizes through one MultiCore).
func (mc *MultiCore) PublishObs() {
	for _, c := range mc.cores {
		c.PublishObs()
	}
}

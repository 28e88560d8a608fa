package ooo

import "capsim/internal/obs"

// Telemetry (internal/obs). The per-cycle and per-instruction paths are not
// instrumented with atomics: the core keeps plain tally fields (below,
// embedded in Core) that are incremented unconditionally — deterministic and
// a few cycles each — and PublishObs ships the deltas to the global counters
// at coarse boundaries (end of a Run window, a profile pass, an interval).
var (
	obsInstrs     = obs.NewCounter("ooo.instrs")         // instructions dispatched
	obsIssued     = obs.NewCounter("ooo.issued")         // instructions issued
	obsCycles     = obs.NewCounter("ooo.cycles")         // cycles simulated
	obsDrainCy    = obs.NewCounter("ooo.drain_stalls")   // drain stall cycles
	obsFullCy     = obs.NewCounter("ooo.window_full_cy") // dispatch-blocked cycles
	obsRingGrows  = obs.NewCounter("ooo.ring_grows")     // completion-ring growths
	obsResizes    = obs.NewCounter("ooo.resizes")        // window Resize calls
	obsIdleSkip   = obs.NewCounter("ooo.idle_skipped")   // stall cycles fast-forwarded
	obsWindowG    = obs.NewGauge("ooo.window_current")   // window size at the last publish
	obsOccupancyG = obs.NewGauge("ooo.occupancy")        // occupancy at the last publish
)

// tallies are the core's plain telemetry counters: structural event counts
// the local Stats struct does not carry. They are updated unconditionally on
// their (already branchy) paths and published as deltas.
type tallies struct {
	ringGrows   int64 // monotone: growRing only ever enlarges the ring
	resizes     int64
	idleSkipped int64 // stall cycles fast-forwarded by idleSkip
}

// sub returns t - o field-wise.
func (t tallies) sub(o tallies) tallies {
	return tallies{
		ringGrows:   t.ringGrows - o.ringGrows,
		resizes:     t.resizes - o.resizes,
		idleSkipped: t.idleSkipped - o.idleSkipped,
	}
}

// PublishObs publishes the statistics and structural tallies accumulated
// since the previous publish. Call at coarse boundaries only. The delta
// baselines advance even while obs is disabled, so enabling telemetry
// mid-process never attributes old work to the next experiment.
func (c *Core) PublishObs() {
	ds := c.stats.Sub(c.pubStats)
	dt := c.tal.sub(c.pubTal)
	c.pubStats, c.pubTal = c.stats, c.tal
	if !obs.Enabled() {
		return
	}
	obsInstrs.Add1(ds.Instrs)
	obsIssued.Add1(ds.Issued)
	obsCycles.Add1(ds.Cycles)
	obsDrainCy.Add1(ds.DrainStalls)
	obsFullCy.Add1(ds.WindowFullCy)
	obsRingGrows.Add1(dt.ringGrows)
	obsResizes.Add1(dt.resizes)
	obsIdleSkip.Add1(dt.idleSkipped)
	obsWindowG.Set(int64(c.cfg.WindowSize))
	obsOccupancyG.Set(int64(c.Occupancy()))
}

// PublishObs publishes every member core's deltas (the one-pass queue
// profiling path drives all window sizes through one MultiCore).
func (mc *MultiCore) PublishObs() {
	for _, c := range mc.cores {
		c.PublishObs()
	}
}

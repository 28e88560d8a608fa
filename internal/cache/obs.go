package cache

import "capsim/internal/obs"

// Telemetry (internal/obs). The per-reference hot path (MultiHierarchy.Access)
// is never touched: the simulator keeps accumulating its local tallies, and
// PublishObs hands the *delta since the last publish* to the global counters
// at coarse boundaries (end of a profile pass or interval run). The only
// hot-path addition is one plain (non-atomic, unconditional) int64 increment
// counting fast-path hits — deterministic, identical with obs on or off, and
// far cheaper than the probe loop it annotates.
var (
	obsMultiRefs = obs.NewCounter("cache.multi.refs")      // references through MultiHierarchy
	obsMultiFast = obs.NewCounter("cache.multi.fast_hits") // stack-distance-zero fast-path hits
)

// PublishObs publishes the one-pass evaluator's shared reference count and
// fast-path hits accumulated since the previous publish. A no-op while obs is
// disabled; the delta baseline still advances so enabling obs mid-process
// never double-counts history.
func (m *MultiHierarchy) PublishObs() {
	refs, fast := m.refs-m.pub[0], m.fastHits-m.pub[1]
	m.pub = [2]uint64{m.refs, m.fastHits}
	obsMultiRefs.Add(int64(refs))
	obsMultiFast.Add(int64(fast))
}

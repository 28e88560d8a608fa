package core

import "math"

// This file is the dynamic-policy zoo: four adaptation schemes beyond the
// paper's interval predictor, each a drop-in Policy raced through the
// one-pass MultiPolicy engine. They bracket the design space the ROADMAP
// calls out — damped reaction (hysteresis), proportional control (PID),
// optimism-driven exploration (bandit), and explicit phases (profile-then-
// commit). It also holds the mechanics every adaptive policy shares: the
// drift detector and its confirming streak (all five policies), and the
// per-configuration TPI estimator that IntervalPolicy, HysteresisPolicy and
// PIDPolicy embed, each keeping only its own decider. All policies follow
// two package-wide rules: tunables use the negative-sentinel convention (see
// tunable in policy.go), and candidate configurations are marked visited
// when DISPATCHED, never when their sample returns, so a configuration that
// never yields a Monitor.Last() sample cannot livelock the bootstrap.

// driftTripped reports whether a fresh TPI sample deviates from its own
// smoothed estimate by more than a fractional gain. Every policy uses this
// as its phase-change detector: a regime flip is visible in the incumbent
// configuration's OWN samples — which arrive every interval, for free — so
// re-exploration can trigger immediately instead of waiting out a periodic
// explore timer whose period may exceed the phase length.
func driftTripped(est, tpi, gain float64) bool {
	if est <= 0 {
		return false
	}
	d := tpi - est
	if d < 0 {
		d = -d
	}
	return d/est > gain
}

// driftConfirm is how many CONSECUTIVE deviating incumbent samples a phase
// flip must show before a policy reacts. While a streak is pending the
// reference estimate is frozen: a genuine flip keeps deviating from the
// old-regime reference and confirms on the second sample, while
// interval-by-interval flapping swings back inside the gain band and resets
// the streak — the discriminator that keeps drift detection from amplifying
// exactly the thrash the dwell/deadband machinery exists to damp.
const driftConfirm = 2

// driftStreak counts consecutive deviating incumbent samples.
type driftStreak int

// confirm folds one incumbent sample into the streak: a sample inside the
// gain band resets it, a deviating one extends it. It reports true — and
// resets the streak — when the streak reaches driftConfirm.
func (s *driftStreak) confirm(tripped bool) bool {
	if !tripped {
		*s = 0
		return false
	}
	*s++
	if *s < driftConfirm {
		return false
	}
	*s = 0
	return true
}

// estimator is the Section 6 predictor's state: an exponentially weighted
// TPI estimate per configuration, the bootstrap that fills it, the periodic
// rotation that refreshes it, and the drift streak that rebuilds it after a
// phase flip. Policies embed it by value and keep their tunables as their
// own fields, where composite literals can set them. It must stay plain
// data: rosterKey keys policies by content (memo.Key), and a func or channel
// here would make every race roster private.
type estimator struct {
	est        map[int]float64
	seen       map[int]bool // dispatched since the last restart
	intervals  int64
	exploreIdx int
	drift      driftStreak
	current    int
}

// observe folds the monitor's latest sample into the estimates, starting
// the estimator at the monitor's configuration on first use. An incumbent
// sample updates its EWMA with weight alpha, or — when it deviates by more
// than driftGain — extends the drift streak with the estimate frozen as the
// old-regime reference; a confirmed streak restarts the table (the fresh
// sample verbatim, every other configuration re-swept) and reports
// restarted. A probe sample contradicting its own stale estimate is taken
// verbatim: it is phase-flip evidence from the one vantage point incumbent
// drift detection cannot cover (a flip that leaves the incumbent unchanged
// while redrawing the rest of the menu), and EWMA-blending it into the old
// level would leave the estimate too stale to ever clear a gain threshold.
// Being a single sample, it does not report restarted.
func (e *estimator) observe(m *Monitor, configs []int, alpha, driftGain float64) (restarted bool) {
	if e.est == nil {
		e.est = make(map[int]float64, len(configs))
		e.seen = make(map[int]bool, len(configs))
		e.current = m.Current
	}
	last, ok := m.Last()
	if !ok {
		return false
	}
	tripped := driftTripped(e.est[last.Config], last.TPI, driftGain)
	// Every incumbent sample reaches confirm, so an in-band one resets the
	// streak; probe samples never touch it.
	switch {
	case last.Config == e.current && e.drift.confirm(tripped):
		// The whole table describes the old regime.
		e.est = map[int]float64{last.Config: last.TPI}
		for _, id := range configs {
			if id != e.current {
				delete(e.seen, id)
			}
		}
		return true
	case last.Config == e.current && tripped:
		// Streak pending: the estimate stays frozen.
	case tripped:
		e.est[last.Config] = last.TPI
	default:
		if old, have := e.est[last.Config]; have {
			e.est[last.Config] = old*(1-alpha) + last.TPI*alpha
		} else {
			e.est[last.Config] = last.TPI
		}
	}
	return false
}

// probe counts the interval and returns the configuration to visit instead
// of deciding, if any. Bootstrap first: every configuration not dispatched
// since the last restart, in menu order — marked when dispatched, so a visit
// that never yields a sample is not retried forever. Then, every
// explorePeriod intervals (never when it is <= 0), the next configuration of
// a rotation that skips the incumbent, whose estimate refreshes every
// interval for free, so every period probes a genuinely stale estimate. A
// returning visit needs no coasting interval at the incumbent: its sample is
// folded in before the policy decides.
func (e *estimator) probe(configs []int, explorePeriod int64) (int, bool) {
	e.intervals++
	for _, id := range configs {
		if !e.seen[id] {
			e.seen[id] = true
			return id, true
		}
	}
	if explorePeriod > 0 && e.intervals%explorePeriod == 0 && len(configs) > 1 {
		for range configs {
			e.exploreIdx = (e.exploreIdx + 1) % len(configs)
			if id := configs[e.exploreIdx]; id != e.current {
				return id, true
			}
		}
	}
	return 0, false
}

// best returns the configuration with the smallest estimated TPI and that
// estimate, scanning configs in slice order so ties break toward the earlier
// (faster-clock) entry. It falls back to the incumbent when nothing beats
// its estimate.
func (e *estimator) best(configs []int) (int, float64) {
	best, bestTPI := e.current, e.est[e.current]
	for _, id := range configs {
		if v, ok := e.est[id]; ok && v < bestTPI {
			best, bestTPI = id, v
		}
	}
	return best, bestTPI
}

// HysteresisPolicy reconfigures through a deadband: it tracks the same
// per-configuration TPI estimates as IntervalPolicy but replaces the
// confidence counter with two damping mechanisms — a minimum fractional
// gain (the deadband, entered only when the estimated improvement clears
// SwitchGain) and a minimum dwell time after every move. The combination
// is classic hysteresis: small oscillations around the switching threshold
// produce no reconfigurations at all, while the dwell floor bounds the
// worst-case switch rate even when the workload alternates faster than the
// policy can follow.
type HysteresisPolicy struct {
	// Configs are the candidate configuration IDs.
	Configs []int
	// SwitchGain is the fractional TPI improvement required before the
	// deadband opens (default 0.08; negative means zero: any gain moves).
	SwitchGain float64
	// DwellMin is the minimum number of intervals between voluntary
	// moves (default 6; negative means zero: no dwell floor).
	DwellMin int64
	// ExplorePeriod is how many intervals between estimate-refreshing
	// visits (default 64; negative disables exploration). Drift detection
	// is the primary phase-change trigger; exploration is the staleness
	// backstop for shifts too small to see from the incumbent, so it can
	// afford a sparse cadence.
	ExplorePeriod int64
	// Alpha is the EWMA weight of a new sample (default 0.3; negative
	// means zero: estimates freeze at their first sample).
	Alpha float64
	// DriftGain is the fractional deviation of a fresh incumbent sample
	// from its smoothed estimate that signals a phase change and forces an
	// immediate re-exploration sweep (default 0.08, tight enough to see a
	// flip a saturated incumbent shows only faintly — see
	// IntervalPolicy.DriftGain; negative means zero:
	// any deviation re-sweeps).
	DriftGain float64

	estimator
	dwell int64
}

// Name implements Policy.
func (p *HysteresisPolicy) Name() string { return "hysteresis" }

func (p *HysteresisPolicy) defaults() {
	if p.est != nil {
		return
	}
	p.SwitchGain = tunable(p.SwitchGain, 0.08)
	p.DwellMin = tunable(p.DwellMin, 6)
	p.ExplorePeriod = tunable(p.ExplorePeriod, 64)
	p.Alpha = tunable(p.Alpha, 0.3)
	p.DriftGain = tunable(p.DriftGain, 0.08)
}

// Next implements Policy.
func (p *HysteresisPolicy) Next(m *Monitor) int {
	if len(p.Configs) == 0 {
		return m.Current
	}
	p.defaults()
	p.observe(m, p.Configs, p.Alpha, p.DriftGain)
	p.dwell++
	if id, ok := p.probe(p.Configs, p.ExplorePeriod); ok {
		return id
	}
	best, bestTPI := p.best(p.Configs)
	cur := p.est[p.current]
	if best != p.current && p.dwell >= p.DwellMin && cur > 0 && (cur-bestTPI)/cur >= p.SwitchGain {
		p.current = best
		p.dwell = 0
	}
	return p.current
}

// PIDPolicy closes a PID loop around the monitored TPI: the process
// variable is the incumbent configuration's estimated TPI, the setpoint is
// the best TPI seen anywhere on the menu, and the error is the fractional
// slowdown between them. Proportional, integral (clamped against windup)
// and derivative terms combine into a control output; when it exceeds the
// actuation deadband the policy slews ONE menu position toward the best
// estimate — a control loop moves its plant incrementally rather than
// jumping across the actuator range — and discharges the integrator.
type PIDPolicy struct {
	// Configs are the candidate configuration IDs.
	Configs []int
	// KP, KI, KD are the PID gains on the fractional TPI error
	// (defaults 0.6, 0.25, 0.15; negative means zero: term disabled).
	KP, KI, KD float64
	// Deadband is the control-output magnitude required to actuate
	// (default 0.12; negative means zero: every error actuates).
	Deadband float64
	// WindupMax clamps the integral term (default 1.5; negative means
	// zero: pure PD control).
	WindupMax float64
	// ExplorePeriod is how many intervals between estimate-refreshing
	// visits (default 64; negative disables exploration); as with
	// HysteresisPolicy, a staleness backstop behind drift detection.
	ExplorePeriod int64
	// Alpha is the EWMA weight of a new sample (default 0.3; negative
	// means zero: estimates freeze at their first sample).
	Alpha float64
	// DriftGain is the fractional deviation of a fresh incumbent sample
	// from its smoothed estimate that signals a phase change and forces an
	// immediate re-exploration sweep (default 0.08, tight enough to see a
	// flip a saturated incumbent shows only faintly — see
	// IntervalPolicy.DriftGain; negative means zero:
	// any deviation re-sweeps).
	DriftGain float64

	estimator
	integral float64
	prevErr  float64
	havePrev bool
}

// Name implements Policy.
func (p *PIDPolicy) Name() string { return "pid-tpi" }

func (p *PIDPolicy) defaults() {
	if p.est != nil {
		return
	}
	p.KP = tunable(p.KP, 0.6)
	p.KI = tunable(p.KI, 0.25)
	p.KD = tunable(p.KD, 0.15)
	p.Deadband = tunable(p.Deadband, 0.12)
	p.WindupMax = tunable(p.WindupMax, 1.5)
	p.ExplorePeriod = tunable(p.ExplorePeriod, 64)
	p.Alpha = tunable(p.Alpha, 0.3)
	p.DriftGain = tunable(p.DriftGain, 0.08)
}

// stepToward moves cur one position along configs toward best, used as the
// PID actuator. Unknown positions jump straight to best.
func stepToward(configs []int, cur, best int) int {
	ci, bi := -1, -1
	for i, id := range configs {
		if id == cur {
			ci = i
		}
		if id == best {
			bi = i
		}
	}
	if ci < 0 || bi < 0 || ci == bi {
		return best
	}
	if bi > ci {
		return configs[ci+1]
	}
	return configs[ci-1]
}

// Next implements Policy.
func (p *PIDPolicy) Next(m *Monitor) int {
	if len(p.Configs) == 0 {
		return m.Current
	}
	p.defaults()
	if p.observe(m, p.Configs, p.Alpha, p.DriftGain) {
		// Confirmed phase flip: discharge the loop — integral and
		// derivative state accumulated against the old plant would
		// mis-actuate against the new one.
		p.integral, p.prevErr, p.havePrev = 0, 0, false
	}
	if id, ok := p.probe(p.Configs, p.ExplorePeriod); ok {
		return id
	}
	best, bestTPI := p.best(p.Configs)
	cur := p.est[p.current]
	if best == p.current || cur <= 0 || bestTPI <= 0 {
		// On target (or nothing to steer by): bleed the loop state so a
		// stale error cannot actuate after the plant has already settled.
		p.integral, p.prevErr, p.havePrev = 0, 0, false
		return p.current
	}
	e := (cur - bestTPI) / cur // fractional slowdown vs the best known
	p.integral += e
	if p.integral > p.WindupMax {
		p.integral = p.WindupMax
	}
	var d float64
	if p.havePrev {
		d = e - p.prevErr
	}
	p.prevErr, p.havePrev = e, true
	u := p.KP*e + p.KI*p.integral + p.KD*d
	if u > p.Deadband {
		p.current = stepToward(p.Configs, p.current, best)
		p.integral, p.prevErr, p.havePrev = 0, 0, false
	}
	return p.current
}

// SlopeBanditPolicy treats the configuration menu as bandit arms. Each
// arm keeps a sliding window of recent TPI samples; the decision index is
// the windowed mean, plus a one-step slope projection (an arm trending
// worse is charged its momentum), minus a UCB-flavored exploration bonus
// that grows for rarely pulled arms. The sliding window is what lets the
// bandit track phase changes: stale history ages out instead of anchoring
// the mean. Because the UCB bonus grows only logarithmically — far too
// slowly to re-audition a clearly-losing arm within a phase — a staleness
// horizon forces a pull of any arm idle longer than Staleness intervals
// (the sliding-window bandit discipline: statistics older than the horizon
// are not evidence), and a forced pull that contradicts the arm's stale
// window restarts that window on the fresh sample.
type SlopeBanditPolicy struct {
	// Configs are the candidate configuration IDs.
	Configs []int
	// Explore weights the exploration bonus, in units of the mean TPI
	// scale (default 0.35; negative means zero: pure exploitation).
	Explore float64
	// SlopeWeight weights the one-step trend projection
	// (default 0.5; negative means zero: plain windowed mean).
	SlopeWeight float64
	// Window is the per-arm sample memory (default 8; negative is
	// clamped to 1: last-value only).
	Window int
	// Staleness is the age, in pulls of any arm, past which an idle arm
	// is forcibly re-auditioned (default 32; negative disables forced
	// re-audition). It bounds how long a phase flip invisible from the
	// home arm can go unnoticed; the bandit keeps a denser cadence than
	// the est-based policies because forced pulls are its only source of
	// off-home freshness.
	Staleness int64
	// DriftGain is the fractional deviation of a fresh incumbent sample
	// from its windowed mean that signals a phase change and restarts
	// every other arm's statistics (default 0.25; negative means zero:
	// any deviation restarts). Deliberately wider than
	// IntervalPolicy.DriftGain: a restart collapses an arm's window to a
	// single sample, and single-sample windows make the value+slope score
	// flappy — the bandit's sliding windows already track gradual regime
	// shifts, so drift restarts are reserved for unambiguous cliffs.
	DriftGain float64

	hist       map[int][]float64
	pulls      map[int]int64
	lastPull   map[int]int64
	dispatched map[int]bool
	t          int64
	drift      driftStreak
	home       int
	current    int
	inited     bool
}

// Name implements Policy.
func (p *SlopeBanditPolicy) Name() string { return "slope-bandit" }

func (p *SlopeBanditPolicy) defaults() {
	if p.hist != nil {
		return
	}
	p.Explore = tunable(p.Explore, 0.35)
	p.SlopeWeight = tunable(p.SlopeWeight, 0.5)
	p.Window = tunable(p.Window, 8)
	if p.Window < 1 {
		p.Window = 1
	}
	p.Staleness = tunable(p.Staleness, 32)
	p.DriftGain = tunable(p.DriftGain, 0.25)
	p.hist = make(map[int][]float64, len(p.Configs))
	p.pulls = make(map[int]int64, len(p.Configs))
	p.lastPull = make(map[int]int64, len(p.Configs))
	p.dispatched = make(map[int]bool, len(p.Configs))
}

// windowMean returns the arm's windowed mean TPI, or 0 with no samples.
func (p *SlopeBanditPolicy) windowMean(id int) float64 {
	h := p.hist[id]
	if len(h) == 0 {
		return 0
	}
	var s float64
	for _, v := range h {
		s += v
	}
	return s / float64(len(h))
}

// Next implements Policy.
func (p *SlopeBanditPolicy) Next(m *Monitor) int {
	p.defaults()
	if len(p.Configs) == 0 {
		return m.Current
	}
	if !p.inited {
		p.inited = true
		p.current = m.Current
		p.home = m.Current
	}
	if last, ok := m.Last(); ok {
		tripped := driftTripped(p.windowMean(last.Config), last.TPI, p.DriftGain)
		switch {
		case last.Config == p.home && p.drift.confirm(tripped):
			// Confirmed phase flip seen from inside the home arm: every
			// window holds old-regime samples. Restart the home arm on
			// the fresh sample and mark the other arms undispatched so
			// the bootstrap loop re-auditions each once under the new
			// regime.
			p.hist = map[int][]float64{last.Config: {last.TPI}}
			p.pulls = map[int]int64{last.Config: 1}
			p.lastPull = map[int]int64{last.Config: p.t}
			for _, id := range p.Configs {
				if id != p.home {
					delete(p.dispatched, id)
				}
			}
		case last.Config == p.home && tripped:
			// Streak pending: keep the window frozen as the old-regime
			// reference.
		case tripped:
			// A re-audition contradicting the arm's stale window: the
			// window predates a regime change, so it is not evidence —
			// restart it on the fresh sample (phase-flip coverage for flips
			// the home arm's own TPI does not show).
			p.hist[last.Config] = []float64{last.TPI}
			p.pulls[last.Config]++
			p.lastPull[last.Config] = p.t
		default:
			h := append(p.hist[last.Config], last.TPI)
			if len(h) > p.Window {
				h = h[len(h)-p.Window:]
			}
			p.hist[last.Config] = h
			p.pulls[last.Config]++
			p.lastPull[last.Config] = p.t
		}
		p.t++
	}

	for _, id := range p.Configs {
		if !p.dispatched[id] {
			p.dispatched[id] = true
			p.current = id
			return id
		}
	}

	// Forced re-audition: any non-home arm idle past the staleness horizon
	// gets pulled (stalest first, menu order breaking ties). This, not the
	// log-growth UCB bonus, is what bounds phase-flip discovery time.
	if p.Staleness > 0 {
		stalest, age := -1, p.Staleness
		for _, id := range p.Configs {
			if id == p.home {
				continue
			}
			if a := p.t - p.lastPull[id]; a > age {
				stalest, age = id, a
			}
		}
		if stalest >= 0 {
			p.current = stalest
			return stalest
		}
	}

	// TPI scale for the exploration bonus: mean of the arm means, so the
	// bonus competes in the same units as the decision index.
	var scale float64
	var arms int
	for _, id := range p.Configs {
		if len(p.hist[id]) > 0 {
			scale += p.windowMean(id)
			arms++
		}
	}
	if arms == 0 {
		return p.current // no samples ever: settle on the incumbent
	}
	scale /= float64(arms)

	best, bestV := -1, math.Inf(1)
	for _, id := range p.Configs {
		n := p.pulls[id]
		if n == 0 {
			continue // dispatched but never sampled: nothing to judge
		}
		h := p.hist[id]
		var slope float64
		if len(h) >= 2 {
			slope = h[len(h)-1] - h[len(h)-2]
		}
		v := p.windowMean(id) + p.SlopeWeight*slope - p.Explore*scale*math.Sqrt(math.Log(float64(p.t+1))/float64(n))
		if best < 0 || v < bestV {
			best, bestV = id, v
		}
	}
	if best >= 0 {
		p.current = best
		p.home = best
	}
	return p.current
}

// ProfileThenCommitPolicy is the software-managed scheme: dedicate a short
// profiling round to each candidate (ProbeIntervals dispatches apiece),
// commit to the configuration with the best mean TPI, and hold it. With a
// positive RecommitPeriod the commitment expires and profiling restarts
// from scratch — the explore/exploit boundary is explicit and scheduled,
// the opposite end of the design space from the bandit's continuous
// hedging.
type ProfileThenCommitPolicy struct {
	// Configs are the candidate configuration IDs.
	Configs []int
	// ProbeIntervals is how many intervals each candidate is profiled
	// per round (default 2; negative is clamped to 1).
	ProbeIntervals int64
	// RecommitPeriod is how many committed intervals pass before
	// re-profiling regardless of drift (default 150; negative means zero:
	// commit until drift). Drift detection is the primary recommit
	// trigger; the period is a staleness backstop.
	RecommitPeriod int64
	// DriftGain is the fractional deviation of a committed incumbent's
	// sample from its smoothed estimate that expires the commitment and
	// restarts profiling immediately (default 0.25; negative means zero:
	// any deviation recommits). Deliberately wider than
	// IntervalPolicy.DriftGain: every expiry pays a full profiling sweep
	// (ProbeIntervals visits to each configuration), so on irregular
	// phase structure a tight gain turns jittery-but-committed regions
	// into permanent profiling churn.
	DriftGain float64

	sum        map[int]float64
	cnt        map[int]int64
	probed     int64
	committed  bool
	commitLeft int64
	commitEst  float64
	haveEst    bool
	drift      driftStreak
	current    int
	inited     bool
}

// Name implements Policy.
func (p *ProfileThenCommitPolicy) Name() string { return "profile-commit" }

func (p *ProfileThenCommitPolicy) defaults() {
	if p.sum != nil {
		return
	}
	p.ProbeIntervals = tunable(p.ProbeIntervals, 2)
	if p.ProbeIntervals < 1 {
		p.ProbeIntervals = 1
	}
	p.RecommitPeriod = tunable(p.RecommitPeriod, 150)
	p.DriftGain = tunable(p.DriftGain, 0.25)
	p.sum = make(map[int]float64, len(p.Configs))
	p.cnt = make(map[int]int64, len(p.Configs))
}

// reprofile discards the committed state and restarts the probe round.
func (p *ProfileThenCommitPolicy) reprofile() {
	p.committed = false
	p.probed = 0
	p.haveEst = false
	p.drift = 0
	p.sum = make(map[int]float64, len(p.Configs))
	p.cnt = make(map[int]int64, len(p.Configs))
}

// Next implements Policy.
func (p *ProfileThenCommitPolicy) Next(m *Monitor) int {
	p.defaults()
	if len(p.Configs) == 0 {
		return m.Current
	}
	if !p.inited {
		p.inited = true
		p.current = m.Current
	}
	if last, ok := m.Last(); ok {
		switch {
		case !p.committed:
			p.sum[last.Config] += last.TPI
			p.cnt[last.Config]++
		case last.Config == p.current && !p.haveEst:
			p.commitEst, p.haveEst = last.TPI, true
		case last.Config == p.current:
			// Committed: watch the incumbent for phase drift. The profile
			// the commitment rests on describes the regime it was taken
			// in; an incumbent that persistently deviates from it means
			// that profile is stale. A pending streak keeps commitEst
			// frozen as the reference.
			tripped := driftTripped(p.commitEst, last.TPI, p.DriftGain)
			switch {
			case p.drift.confirm(tripped):
				p.reprofile()
			case !tripped:
				p.commitEst = p.commitEst*0.7 + last.TPI*0.3
			}
		}
	}

	if !p.committed {
		// Profiling advances by DISPATCH count, so a candidate that
		// never returns a sample still consumes its probe slots instead
		// of stalling the round.
		if p.probed < p.ProbeIntervals*int64(len(p.Configs)) {
			id := p.Configs[p.probed/p.ProbeIntervals]
			p.probed++
			p.current = id
			return id
		}
		best, bestTPI := p.current, math.Inf(1)
		found := false
		for _, id := range p.Configs {
			if p.cnt[id] == 0 {
				continue
			}
			if mean := p.sum[id] / float64(p.cnt[id]); !found || mean < bestTPI {
				best, bestTPI, found = id, mean, true
			}
		}
		if found {
			p.current = best
		}
		p.committed = true
		p.commitLeft = p.RecommitPeriod
		p.haveEst = false
	}
	if p.committed && p.RecommitPeriod > 0 {
		p.commitLeft--
		if p.commitLeft <= 0 {
			// Commitment expired: restart profiling from scratch on the
			// next decision, with fresh statistics for the new phase.
			p.reprofile()
		}
	}
	return p.current
}

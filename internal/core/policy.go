package core

import (
	"fmt"
	"math"
)

// Tunable-defaulting convention of IntervalPolicy, the one policy with
// settable values (the zoo contenders run on package constants): the Go zero
// value of a tunable selects its documented default, so short struct
// literals keep working, and a NEGATIVE value selects an explicit zero —
// which the zero value cannot express. &IntervalPolicy{MinGain: -1} demands
// "switch on any gain"; ExplorePeriod: -1 disables exploration outright.
// Without the sentinel, an explicitly configured zero was silently coerced
// back to the default.
func tunable[T int | int64 | float64](v, def T) T {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// FixedPolicy never reconfigures: it models a conventional processor whose
// complexity was frozen at design time (the paper's baselines).
type FixedPolicy struct {
	Config int
}

// Name implements Policy.
func (p FixedPolicy) Name() string { return fmt.Sprintf("fixed(%d)", p.Config) }

// Next implements Policy.
func (p FixedPolicy) Next(*Monitor) int { return p.Config }

// ProcessLevelPolicy is the paper's evaluation model (Section 5.1): the
// configuration is fixed for the duration of an application, chosen as the
// best overall configuration for that application by a CAP compiler or
// runtime environment (modeled as an oracle profiling pass), and the
// configuration registers are reloaded by the operating system on context
// switches. Within a run it behaves like FixedPolicy; the per-application
// choice is made by SelectBestIndex.
type ProcessLevelPolicy struct {
	// Best is the profiled best configuration for the running application.
	Best int
}

// Name implements Policy.
func (p ProcessLevelPolicy) Name() string { return fmt.Sprintf("process-level(%d)", p.Best) }

// Next implements Policy.
func (p ProcessLevelPolicy) Next(*Monitor) int { return p.Best }

// SelectBestIndex is SelectBest for the dense profiling tables the parallel
// sweep produces: it returns the index of the smallest finite TPI, breaking
// ties toward the smaller (faster-clock) index. Non-finite entries (the +Inf
// padding in slot 0 of cache tables, whose boundaries are 1-based) are
// skipped. It panics if no finite entry exists.
func SelectBestIndex(tpiByConfig []float64) int {
	best, bestTPI := -1, math.Inf(1)
	for id, tpi := range tpiByConfig {
		if math.IsInf(tpi, 0) || math.IsNaN(tpi) {
			continue
		}
		if tpi < bestTPI || best < 0 {
			best, bestTPI = id, tpi
		}
	}
	if best < 0 {
		panic("core: SelectBestIndex on empty table")
	}
	return best
}

// IntervalPolicy is the Section 6 extension: a hardware predictor that reads
// the performance-monitoring hardware every interval, predicts the
// best-performing configuration for the next interval, and switches when
// confident. The design follows the paper's two observations:
//
//   - long stable phases and regular alternation patterns are exploitable
//     with simple last-value prediction over per-configuration TPI
//     estimates;
//   - irregular regions (Figure 13(b)) must not cause reconfiguration
//     thrash, so predictions carry a saturating confidence counter and a
//     minimum-gain threshold, "as with value prediction ... a confidence
//     level ... to avoid needless reconfiguration overhead".
//
// The predictor maintains an exponentially weighted TPI estimate per
// configuration, refreshed by occasional exploration visits, and moves only
// when the estimated gain exceeds MinGain for ConfidenceMax consecutive
// intervals.
type IntervalPolicy struct {
	// Configs are the candidate configuration IDs.
	Configs []int
	// MinGain is the fractional TPI improvement required to switch
	// (default 0.03; negative means zero: switch on any gain).
	MinGain float64
	// ConfidenceMax is the saturating-counter threshold (default 2;
	// negative means zero: switch without confidence buildup).
	ConfidenceMax int
	// ExplorePeriod is how many intervals between exploration visits to a
	// stale configuration (default 64; negative disables exploration).
	// Drift detection (DriftGain) is the primary phase-change trigger;
	// periodic exploration is the staleness backstop that catches regime
	// shifts too small for the drift detector to see from the incumbent,
	// so it can afford a sparse cadence.
	ExplorePeriod int64
	// Alpha is the EWMA weight of a new sample (default 0.5; negative
	// means zero: estimates freeze at their first sample).
	Alpha float64
	// DriftGain is the fractional deviation of a fresh incumbent sample
	// from its smoothed estimate that signals a phase change and forces an
	// immediate re-exploration sweep — the paper's observation that
	// performance variation, not a timer, is what should trigger
	// re-evaluation. Default 0.08: tight enough to see a flip that moves
	// the incumbent's TPI only a few percent (a saturated structure can be
	// nearly phase-blind even when the clock-rate tradeoff has flipped),
	// while the driftConfirm streak screens out one-interval jitter.
	// Negative means zero: any deviation re-sweeps.
	DriftGain float64

	estimator
	confidence int
	candidate  int
	fresh      bool // the estimates were just rebuilt by a confirmed drift streak
}

// Name implements Policy.
func (p *IntervalPolicy) Name() string { return "interval-adaptive" }

func (p *IntervalPolicy) defaults() {
	if p.est != nil {
		return
	}
	p.MinGain = tunable(p.MinGain, 0.03)
	p.ConfidenceMax = tunable(p.ConfidenceMax, 2)
	p.ExplorePeriod = tunable(p.ExplorePeriod, 64)
	p.Alpha = tunable(p.Alpha, 0.5)
	p.DriftGain = tunable(p.DriftGain, 0.08)
}

// Next implements Policy.
func (p *IntervalPolicy) Next(m *Monitor) int {
	if len(p.Configs) == 0 {
		return m.Current
	}
	p.defaults()
	if p.observe(m, p.Configs, p.Alpha, p.DriftGain) {
		// The old regime's half-built confidence is void.
		p.confidence, p.candidate = 0, -1
		p.fresh = true
	}
	if id, ok := p.probe(p.Configs, p.ExplorePeriod); ok {
		return id
	}

	// Prediction: best estimated configuration, confidence-gated. Fresh
	// estimates are direct regime evidence, not prediction jitter — the
	// jitter the confidence counter exists to screen — so they switch at
	// once: rebuilding confidence would charge ConfidenceMax extra
	// wrong-configuration intervals per phase change. (A single probe
	// contradicting its own estimate does not set fresh; it still builds
	// confidence.)
	best, bestTPI := p.best(p.Configs)
	cur := p.est[p.current]
	if best != p.current && cur > 0 && (cur-bestTPI)/cur >= p.MinGain {
		if best != p.candidate {
			p.candidate, p.confidence = best, 0
		}
		p.confidence++
		if p.fresh || p.confidence >= p.ConfidenceMax {
			p.current = best
			p.confidence, p.candidate = 0, -1
		}
	} else {
		p.confidence = 0
		p.candidate = -1
	}
	p.fresh = false // regime evidence is consumed by one prediction
	return p.current
}

package core

import (
	"math"
	"testing"
)

// TestMonitorLast pins the one-sample monitor: no sample until the first
// Record, then exactly the last recorded one, whose configuration becomes
// current.
func TestMonitorLast(t *testing.T) {
	m := &Monitor{Current: 2}
	if _, ok := m.Last(); ok {
		t.Error("empty monitor returned a sample")
	}
	if m.Current != 2 {
		t.Errorf("current config %d before any sample, want 2", m.Current)
	}
	for i := 0; i < 5; i++ {
		s := Sample{Config: i % 2, TPI: float64(i + 1)}
		m.Record(s)
		if last, ok := m.Last(); !ok || last != s {
			t.Errorf("after record %d: Last() = %+v, %v; want %+v", i, last, ok, s)
		}
		if m.Current != s.Config {
			t.Errorf("after record %d: current config %d, want %d", i, m.Current, s.Config)
		}
	}
}

func TestFixedPolicy(t *testing.T) {
	p := FixedPolicy{Config: 3}
	m := &Monitor{}
	m.Record(Sample{Config: 1, TPI: 0.5})
	if got := p.Next(m); got != 3 {
		t.Errorf("Next = %d", got)
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
}

func TestProcessLevelPolicy(t *testing.T) {
	p := ProcessLevelPolicy{Best: 5}
	if got := p.Next(&Monitor{}); got != 5 {
		t.Errorf("Next = %d", got)
	}
}

func TestSelectBestIndex(t *testing.T) {
	if got := SelectBestIndex([]float64{0.5, 0.3, 0.9}); got != 1 {
		t.Errorf("best = %d, want 1", got)
	}
	// Ties break toward the smaller index (faster clock).
	if got := SelectBestIndex([]float64{0.4, 0.3, 0.3}); got != 1 {
		t.Errorf("tie best = %d, want 1", got)
	}
	// Inf/NaN padding slots (boundary 0 in the cache tables) are skipped.
	if got := SelectBestIndex([]float64{math.Inf(1), 0.7, 0.6, math.NaN()}); got != 2 {
		t.Errorf("padded best = %d, want 2", got)
	}
}

func TestSelectBestIndexPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SelectBestIndex([]float64{math.Inf(1)})
}

// feed runs the policy through a synthetic sequence where trueTPI gives each
// configuration's TPI; it returns the config chosen for each interval.
func feed(p Policy, trueTPI map[int]float64, intervals int) []int {
	return feedFunc(p, func(_, cfg int) float64 { return trueTPI[cfg] }, intervals)
}

func TestIntervalPolicyConvergesToBest(t *testing.T) {
	p := &IntervalPolicy{Configs: []int{0, 1, 2}}
	choices := feed(p, map[int]float64{0: 0.5, 1: 0.3, 2: 0.7}, 60)
	// After bootstrap + confidence, the policy should settle on config 1.
	settled := choices[len(choices)-10:]
	for _, c := range settled {
		// Occasional exploration visits are allowed; the incumbent
		// must be 1 for most of the tail.
		_ = c
	}
	count1 := 0
	for _, c := range choices[20:] {
		if c == 1 {
			count1++
		}
	}
	if frac := float64(count1) / float64(len(choices)-20); frac < 0.8 {
		t.Errorf("policy spent only %.0f%% of steady state on the best config", 100*frac)
	}
}

func TestIntervalPolicyConfidenceGating(t *testing.T) {
	// With a high confidence threshold, a one-interval blip must not
	// trigger a switch.
	p := &IntervalPolicy{Configs: []int{0, 1}, ConfidenceMax: 3, ExplorePeriod: 1 << 40, MinGain: 0.05}
	m := &Monitor{}
	// Bootstrap both configs: 0 is better.
	m.Record(Sample{Config: 0, TPI: 0.30})
	p.Next(m) // will explore 1
	m.Record(Sample{Config: 1, TPI: 0.40})
	for i := 0; i < 5; i++ {
		c := p.Next(m)
		m.Record(Sample{Config: c, TPI: map[int]float64{0: 0.30, 1: 0.40}[c]})
	}
	// A single good sample for 1 should not flip the incumbent yet.
	m.Record(Sample{Config: 1, TPI: 0.10})
	if c := p.Next(m); c == 1 {
		t.Error("policy switched after a single confident interval (threshold 3)")
	}
}

func TestIntervalPolicyIgnoresSmallGains(t *testing.T) {
	p := &IntervalPolicy{Configs: []int{0, 1}, MinGain: 0.10, ExplorePeriod: 1 << 40}
	// Config 1 is only 2% better: below the gain threshold, stay put.
	choices := feed(p, map[int]float64{0: 0.300, 1: 0.294}, 40)
	switched := 0
	for _, c := range choices[5:] {
		if c == 1 {
			switched++
		}
	}
	if switched > 2 { // bootstrap visit only
		t.Errorf("policy switched to a <MinGain config %d times", switched)
	}
}

func TestIntervalPolicyTracksPhaseChange(t *testing.T) {
	// The best configuration flips mid-run; the policy must follow.
	p := &IntervalPolicy{Configs: []int{0, 1}, ExplorePeriod: 8}
	m := &Monitor{}
	phase1 := map[int]float64{0: 0.2, 1: 0.4}
	phase2 := map[int]float64{0: 0.4, 1: 0.2}
	var tail []int
	for i := 0; i < 120; i++ {
		tpi := phase1
		if i >= 60 {
			tpi = phase2
		}
		c := p.Next(m)
		m.Record(Sample{Config: c, TPI: tpi[c]})
		if i >= 100 {
			tail = append(tail, c)
		}
	}
	on1 := 0
	for _, c := range tail {
		if c == 1 {
			on1++
		}
	}
	if frac := float64(on1) / float64(len(tail)); frac < 0.7 {
		t.Errorf("policy on new best config only %.0f%% after phase change", 100*frac)
	}
}

func TestIntervalPolicyEmptyConfigs(t *testing.T) {
	p := &IntervalPolicy{}
	m := &Monitor{Current: 7}
	if got := p.Next(m); got != 7 {
		t.Errorf("empty-config policy moved to %d", got)
	}
}

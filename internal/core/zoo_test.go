package core

import (
	"strings"
	"testing"
)

func TestTunableSentinels(t *testing.T) {
	if got := tunable(0, 0.5); got != 0.5 {
		t.Errorf("tunable(0, 0.5) = %v, want default", got)
	}
	if got := tunable(-1, 0.5); got != 0 {
		t.Errorf("tunable(-1, 0.5) = %v, want explicit zero", got)
	}
	if got := tunable(0.2, 0.5); got != 0.2 {
		t.Errorf("tunable(0.2, 0.5) = %v", got)
	}
	if got := tunable(-3, 7); got != 0 {
		t.Errorf("tunable(-3, 7) = %v, want 0", got)
	}
	if got := tunable[int64](0, 32); got != 32 {
		t.Errorf("tunable[int64](0, 32) = %v, want default", got)
	}
}

// TestIntervalPolicyExplicitZeroGain locks the sentinel fix: MinGain: -1
// ("switch on any gain") and ConfidenceMax: -1 ("no confidence buildup")
// must make the policy take a 2% improvement the defaults would refuse.
func TestIntervalPolicyExplicitZeroGain(t *testing.T) {
	tpi := map[int]float64{0: 0.300, 1: 0.294} // 2% gain, below default MinGain
	strict := &IntervalPolicy{Configs: []int{0, 1}, ExplorePeriod: 1 << 40}
	eager := &IntervalPolicy{Configs: []int{0, 1}, ExplorePeriod: 1 << 40, MinGain: -1, ConfidenceMax: -1}
	tail := func(p Policy) int {
		choices := feed(p, tpi, 40)
		on1 := 0
		for _, c := range choices[len(choices)-10:] {
			if c == 1 {
				on1++
			}
		}
		return on1
	}
	if n := tail(strict); n != 0 {
		t.Errorf("default MinGain took a 2%% gain (%d/10 tail intervals on 1)", n)
	}
	if n := tail(eager); n != 10 {
		t.Errorf("explicit-zero MinGain ignored a 2%% gain (%d/10 tail intervals on 1)", n)
	}
}

// TestBootstrapNoSampleSettles locks the livelock fix across the whole zoo:
// a policy whose dispatches never produce a Monitor.Last() sample must
// visit each candidate at most a bounded number of times and then settle,
// instead of re-exploring the first configuration forever.
func TestBootstrapNoSampleSettles(t *testing.T) {
	mk := func() []Policy {
		return []Policy{
			&IntervalPolicy{Configs: []int{0, 1, 2}},
			&HysteresisPolicy{Configs: []int{0, 1, 2}},
			&PIDPolicy{Configs: []int{0, 1, 2}},
			&SlopeBanditPolicy{Configs: []int{0, 1, 2}},
			&ProfileThenCommitPolicy{Configs: []int{0, 1, 2}},
		}
	}
	for _, p := range mk() {
		m := NewMonitor(8) // never recorded into: Last() always fails
		m.Current = 0
		visits := map[int]int{}
		for i := 0; i < 200; i++ {
			visits[p.Next(m)]++
		}
		// Every candidate may be dispatched during bootstrap/probing and
		// periodic exploration, but the policy must spend the bulk of the
		// run settled, not cycling the bootstrap loop.
		settled := 0
		for _, n := range visits {
			if n > settled {
				settled = n
			}
		}
		if settled < 150 {
			t.Errorf("%s: no settled incumbent without samples (visits %v)", p.Name(), visits)
		}
	}
}

func TestHysteresisConvergesToBest(t *testing.T) {
	p := &HysteresisPolicy{Configs: []int{0, 1, 2}}
	choices := feed(p, map[int]float64{0: 0.5, 1: 0.3, 2: 0.7}, 60)
	on1 := 0
	for _, c := range choices[20:] {
		if c == 1 {
			on1++
		}
	}
	if frac := float64(on1) / float64(len(choices)-20); frac < 0.8 {
		t.Errorf("hysteresis spent only %.0f%% of steady state on the best config", 100*frac)
	}
}

func TestHysteresisDeadbandHolds(t *testing.T) {
	// A 3% gain sits inside the default 8% deadband: no switch.
	p := &HysteresisPolicy{Configs: []int{0, 1}, ExplorePeriod: 1 << 40}
	choices := feed(p, map[int]float64{0: 0.300, 1: 0.291}, 40)
	on1 := 0
	for _, c := range choices[5:] {
		if c == 1 {
			on1++
		}
	}
	if on1 > 0 {
		t.Errorf("deadband leaked: %d intervals on the 3%%-better config", on1)
	}
}

func TestHysteresisDwellFloor(t *testing.T) {
	// Alternate the best config every interval; the dwell floor must keep
	// the switch count well under the flip count.
	p := &HysteresisPolicy{Configs: []int{0, 1}, DwellMin: 10, ExplorePeriod: 1 << 40, Alpha: 1}
	m := NewMonitor(16)
	m.Current = 0
	switches, prev := 0, -1
	for i := 0; i < 100; i++ {
		tpi := map[int]float64{0: 0.2, 1: 0.4}
		if i%2 == 1 {
			tpi = map[int]float64{0: 0.4, 1: 0.2}
		}
		c := p.Next(m)
		if prev >= 0 && c != prev {
			switches++
		}
		prev = c
		m.Record(Sample{Interval: int64(i), Config: c, TPI: tpi[c]})
	}
	if switches > 12 {
		t.Errorf("dwell floor 10 allowed %d switches in 100 flapping intervals", switches)
	}
}

func TestPIDConvergesAndSlews(t *testing.T) {
	p := &PIDPolicy{Configs: []int{0, 1, 2}, ExplorePeriod: 1 << 40}
	choices := feed(p, map[int]float64{0: 0.5, 1: 0.3, 2: 0.1}, 60)
	// The actuator slews one menu position per actuation: on the way from
	// 0 to 2 the policy must pass through 1 after its bootstrap visits.
	post := choices[3:] // skip the three bootstrap dispatches
	first2 := -1
	via1 := false
	for i, c := range post {
		if c == 2 {
			first2 = i
			break
		}
		if c == 1 {
			via1 = true
		}
	}
	if first2 < 0 {
		t.Fatalf("PID never reached the best config: %v", choices)
	}
	if !via1 {
		t.Errorf("PID jumped 0->2 without slewing through 1: %v", choices)
	}
	on2 := 0
	for _, c := range choices[30:] {
		if c == 2 {
			on2++
		}
	}
	if frac := float64(on2) / float64(len(choices)-30); frac < 0.8 {
		t.Errorf("PID spent only %.0f%% of steady state on the best config", 100*frac)
	}
}

func TestPIDDeadbandHolds(t *testing.T) {
	// A tiny error never charges the loop past the actuation deadband.
	p := &PIDPolicy{Configs: []int{0, 1}, ExplorePeriod: 1 << 40, WindupMax: 0.05}
	choices := feed(p, map[int]float64{0: 0.300, 1: 0.297}, 60)
	on1 := 0
	for _, c := range choices[5:] {
		if c == 1 {
			on1++
		}
	}
	if on1 > 0 {
		t.Errorf("PID actuated on a 1%% error: %d intervals on config 1", on1)
	}
}

func TestSlopeBanditConvergesToBest(t *testing.T) {
	p := &SlopeBanditPolicy{Configs: []int{0, 1, 2}}
	choices := feed(p, map[int]float64{0: 0.5, 1: 0.3, 2: 0.7}, 120)
	on1 := 0
	for _, c := range choices[40:] {
		if c == 1 {
			on1++
		}
	}
	// UCB keeps re-auditioning the other arms, so demand a majority,
	// not a supermajority.
	if frac := float64(on1) / float64(len(choices)-40); frac < 0.6 {
		t.Errorf("bandit spent only %.0f%% of steady state on the best arm", 100*frac)
	}
}

func TestSlopeBanditTracksPhaseChange(t *testing.T) {
	p := &SlopeBanditPolicy{Configs: []int{0, 1}}
	m := NewMonitor(16)
	m.Current = 0
	var tail []int
	for i := 0; i < 160; i++ {
		tpi := map[int]float64{0: 0.2, 1: 0.4}
		if i >= 80 {
			tpi = map[int]float64{0: 0.4, 1: 0.2}
		}
		c := p.Next(m)
		m.Record(Sample{Interval: int64(i), Config: c, TPI: tpi[c]})
		if i >= 130 {
			tail = append(tail, c)
		}
	}
	on1 := 0
	for _, c := range tail {
		if c == 1 {
			on1++
		}
	}
	if frac := float64(on1) / float64(len(tail)); frac < 0.6 {
		t.Errorf("bandit on new best arm only %.0f%% after phase change", 100*frac)
	}
}

func TestProfileThenCommitCycle(t *testing.T) {
	p := &ProfileThenCommitPolicy{Configs: []int{0, 1, 2}, ProbeIntervals: 2, RecommitPeriod: 20}
	choices := feed(p, map[int]float64{0: 0.5, 1: 0.3, 2: 0.7}, 60)
	// Probe round: each candidate dispatched twice, in menu order.
	want := []int{0, 0, 1, 1, 2, 2}
	for i, w := range want {
		if choices[i] != w {
			t.Fatalf("probe dispatch %d = %d, want %d (%v)", i, choices[i], w, choices[:6])
		}
	}
	// Commit phase: locked on the best profiled candidate.
	for i := 6; i < 26; i++ {
		if choices[i] != 1 {
			t.Errorf("interval %d: committed policy on %d, want 1", i, choices[i])
		}
	}
	// Re-profile round starts after the commitment expires.
	if choices[26] != 0 || choices[27] != 0 {
		t.Errorf("recommit did not restart profiling: %v", choices[26:32])
	}
}

func TestStepToward(t *testing.T) {
	cfgs := []int{0, 1, 2}
	if got := stepToward(cfgs, 0, 2); got != 1 {
		t.Errorf("stepToward(0->2) = %d, want 1", got)
	}
	if got := stepToward(cfgs, 2, 0); got != 1 {
		t.Errorf("stepToward(2->0) = %d, want 1", got)
	}
	if got := stepToward(cfgs, 1, 1); got != 1 {
		t.Errorf("stepToward(1->1) = %d, want 1", got)
	}
	if got := stepToward(cfgs, 9, 2); got != 2 {
		t.Errorf("unknown incumbent: stepToward = %d, want jump to 2", got)
	}
}

func TestZooPolicyNames(t *testing.T) {
	names := map[string]bool{}
	for _, p := range []Policy{
		&HysteresisPolicy{}, &PIDPolicy{}, &SlopeBanditPolicy{}, &ProfileThenCommitPolicy{},
	} {
		n := p.Name()
		if n == "" || names[n] {
			t.Errorf("bad or duplicate policy name %q", n)
		}
		names[n] = true
	}
}

func TestZooEmptyConfigs(t *testing.T) {
	for _, p := range []Policy{
		&HysteresisPolicy{}, &PIDPolicy{}, &SlopeBanditPolicy{}, &ProfileThenCommitPolicy{},
	} {
		m := NewMonitor(4)
		m.Current = 7
		if got := p.Next(m); got != 7 {
			t.Errorf("%s: empty-config policy moved to %d", p.Name(), got)
		}
	}
}

// feedFunc is feed with a time-varying workload: tpi(iv, cfg) is the TPI
// configuration cfg shows in interval iv.
func feedFunc(p Policy, tpi func(iv, cfg int) float64, intervals int) []int {
	m := NewMonitor(16)
	m.Current = 0
	choices := make([]int, 0, intervals)
	for i := 0; i < intervals; i++ {
		c := p.Next(m)
		choices = append(choices, c)
		m.Record(Sample{Interval: int64(i), Config: c, TPI: tpi(i, c)})
	}
	return choices
}

// traceTPI is a three-phase schedule over a 3-config menu: at interval 70
// the best configuration's TPI rises by half (a flip the incumbent sees);
// at interval 140 configuration 0 keeps its TPI while the other two are
// redrawn (a flip only a probe sees); intervals 30, 100 and 170 are
// one-interval blips on every configuration, and interval 120 a blip on
// configuration 2 alone.
func traceTPI(iv, cfg int) float64 {
	phases := [3][3]float64{
		{0.50, 0.30, 0.70},
		{0.25, 0.45, 0.60},
		{0.25, 0.40, 0.15},
	}
	v := phases[min(iv/70, 2)][cfg]
	switch {
	case iv == 30 || iv == 100 || iv == 170:
		v *= 1.6
	case iv == 120 && cfg == 2:
		v *= 0.5
	}
	return v
}

// TestPolicyDecisionTrace pins every adaptive policy's decision sequence at
// its defaults over traceTPI, one digit per interval: any change to the
// shared estimator, drift streak or a decider shows up as a diff here.
func TestPolicyDecisionTrace(t *testing.T) {
	want := map[string]string{
		"interval-adaptive": "0120111111111111111111111111111111111111111111111111111111111112111111" +
			"1102000000000000000000000000000000000000000000000000000001000000000000" +
			"0000000000000000000000000000000000000000000000000002022222222222222222",
		"hysteresis": "0120011111111111111111111111111111111111111111111111111111111112111111" +
			"1102000000000000000000000000000000000000000000000000000001000000000000" +
			"0000000000000000000000000000000000000000000000000002222222222222222222",
		"pid-tpi": "0121111111111111111111111111111111111111111111111111111111111112111111" +
			"1102000000000000000000000000000000000000000000000000000001000000000000" +
			"0000000000000000000000000000000000000000000000000002122222222222222222",
		"slope-bandit": "0121111111111101111111111111111111121111111111101111111111111111111121" +
			"1102000000010000000000000000000000002000000010000000000000000000000002" +
			"0000000100000000000000000000000022222222122222222222222222222222022222",
		"profile-commit": "0011221111111111111111111111111111111111111111111111111111111111111111" +
			"1100112200000000000000000000000000000000000000000000000000000000000000" +
			"0000000000000000000000000000000000000000000000000000000000000000000000",
	}
	for _, p := range []Policy{
		&IntervalPolicy{Configs: []int{0, 1, 2}},
		&HysteresisPolicy{Configs: []int{0, 1, 2}},
		&PIDPolicy{Configs: []int{0, 1, 2}},
		&SlopeBanditPolicy{Configs: []int{0, 1, 2}},
		&ProfileThenCommitPolicy{Configs: []int{0, 1, 2}},
	} {
		var sb strings.Builder
		for _, c := range feedFunc(p, traceTPI, 210) {
			sb.WriteByte(byte('0' + c))
		}
		got := sb.String()
		if got != want[p.Name()] {
			i := 0
			for i < len(got) && i < len(want[p.Name()]) && got[i] == want[p.Name()][i] {
				i++
			}
			t.Errorf("%s: decisions diverge at interval %d\n got %s\nwant %s", p.Name(), i, got, want[p.Name()])
		}
	}
}

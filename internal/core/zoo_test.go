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
		m := &Monitor{} // never recorded into: Last() always fails
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
	// A 3% gain sits inside the deadband: no switch. 40 intervals end
	// before the first exploration visit.
	tpi := map[int]float64{0: 0.300, 1: 0.291}
	if gain := (tpi[0] - tpi[1]) / tpi[0]; gain >= hystSwitchGain {
		t.Fatalf("a %.3f gain is not inside the %.2f deadband", gain, hystSwitchGain)
	}
	p := &HysteresisPolicy{Configs: []int{0, 1}}
	choices := feed(p, tpi, 40)
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
	// The best config flips every 4 intervals, faster than the dwell floor
	// lets the decider follow: its voluntary moves (changes of its
	// incumbent; probe dispatches are not moves) must stay at least
	// hystDwellMin intervals apart, and some must sit exactly on the floor.
	p := &HysteresisPolicy{Configs: []int{0, 1}}
	m := &Monitor{}
	var moves []int
	for i := 0; i < 100; i++ {
		tpi := map[int]float64{0: 0.2, 1: 0.4}
		if (i/4)%2 == 1 {
			tpi = map[int]float64{0: 0.4, 1: 0.2}
		}
		inc := p.current
		c := p.Next(m)
		if i > 0 && p.current != inc {
			moves = append(moves, i)
		}
		m.Record(Sample{Config: c, TPI: tpi[c]})
	}
	onFloor := false
	for k := 1; k < len(moves); k++ {
		gap := moves[k] - moves[k-1]
		if gap < hystDwellMin {
			t.Errorf("moves at intervals %d and %d: %d apart, dwell floor %d", moves[k-1], moves[k], gap, hystDwellMin)
		}
		onFloor = onFloor || gap == hystDwellMin
	}
	if !onFloor {
		t.Errorf("no two moves exactly %d intervals apart: the floor never bound (moves %v)", hystDwellMin, moves)
	}
}

func TestPIDConvergesAndSlews(t *testing.T) {
	p := &PIDPolicy{Configs: []int{0, 1, 2}}
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
	// A persistent 1% error charges the loop one integral step per
	// decision: it actuates exactly when the gains first push the control
	// output past the deadband, and holds the incumbent until then.
	tpi := map[int]float64{0: 0.300, 1: 0.297}
	e := (tpi[0] - tpi[1]) / tpi[0]
	var integral float64
	steps := 0
	for u := 0.0; u <= pidDeadband; {
		steps++
		integral = min(integral+e, pidWindupMax)
		u = pidKP*e + pidKI*integral
	}
	// Decisions 0 and 1 are the bootstrap visits; the loop first sees the
	// error at decision 2. The deadband is meant to hold a 1% error for
	// dozens of intervals, and the hold must end before the first
	// exploration visit (decision estExplorePeriod-1) would interrupt it.
	want := 1 + steps
	if want < 20 {
		t.Fatalf("gains predict actuation on a 1%% error already at decision %d", want)
	}
	if want >= estExplorePeriod-1 {
		t.Fatalf("predicted actuation at decision %d is past the first exploration visit", want)
	}
	choices := feed(&PIDPolicy{Configs: []int{0, 1}}, tpi, want+5)
	for i, c := range choices[2:want] {
		if c != 0 {
			t.Fatalf("decision %d: PID left the incumbent before the deadband opened (%v)", i+2, choices)
		}
	}
	if choices[want] != 1 {
		t.Errorf("decision %d: PID did not actuate when its gains predict (%v)", want, choices)
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
	m := &Monitor{}
	var tail []int
	for i := 0; i < 160; i++ {
		tpi := map[int]float64{0: 0.2, 1: 0.4}
		if i >= 80 {
			tpi = map[int]float64{0: 0.4, 1: 0.2}
		}
		c := p.Next(m)
		m.Record(Sample{Config: c, TPI: tpi[c]})
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
	p := &ProfileThenCommitPolicy{Configs: []int{0, 1, 2}}
	const probe = 3 * ptcProbeIntervals
	choices := feed(p, map[int]float64{0: 0.5, 1: 0.3, 2: 0.7}, 2*probe+ptcRecommitPeriod)
	// Probe round: each candidate dispatched ptcProbeIntervals times, in
	// menu order.
	for i := 0; i < probe; i++ {
		if w := i / ptcProbeIntervals; choices[i] != w {
			t.Fatalf("probe dispatch %d = %d, want %d (%v)", i, choices[i], w, choices[:probe])
		}
	}
	// Commit phase: locked on the best profiled candidate for exactly
	// ptcRecommitPeriod intervals.
	for i := probe; i < probe+ptcRecommitPeriod; i++ {
		if choices[i] != 1 {
			t.Errorf("interval %d: committed policy on %d, want 1", i, choices[i])
		}
	}
	// Then the commitment expires and a fresh probe round starts.
	for i := probe + ptcRecommitPeriod; i < len(choices); i++ {
		if w := (i - probe - ptcRecommitPeriod) / ptcProbeIntervals; choices[i] != w {
			t.Errorf("recommit did not restart profiling: %v", choices[probe+ptcRecommitPeriod:])
			break
		}
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
		m := &Monitor{Current: 7}
		if got := p.Next(m); got != 7 {
			t.Errorf("%s: empty-config policy moved to %d", p.Name(), got)
		}
	}
}

// feedFunc is feed with a time-varying workload: tpi(iv, cfg) is the TPI
// configuration cfg shows in interval iv.
func feedFunc(p Policy, tpi func(iv, cfg int) float64, intervals int) []int {
	m := &Monitor{}
	choices := make([]int, 0, intervals)
	for i := 0; i < intervals; i++ {
		c := p.Next(m)
		choices = append(choices, c)
		m.Record(Sample{Config: c, TPI: tpi(i, c)})
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

// FuzzPolicyMenu feeds every adaptive policy a byte-coded schedule of
// positive finite TPIs over a menu of 1–4 configurations. data[0] picks the
// menu length and the starting configuration, which need not be on the
// menu, data[1] the menu's IDs; the
// rest, read cyclically, is one TPI byte per (interval, menu position). Each
// decision must be a member of Configs, and two fresh instances fed the same
// schedule must decide identically — the race-family memo serves one
// family's columns to every equal roster.
func FuzzPolicyMenu(f *testing.F) {
	f.Add([]byte{0, 0, 10})
	f.Add([]byte{3, 5, 40, 20, 60, 80, 20, 40, 90, 10})
	f.Add([]byte{7, 2, 255, 0, 128, 1})
	f.Add([]byte{2, 7, 50, 30, 70, 25, 45, 60, 25, 40, 15})
	f.Add([]byte{1, 1, 40, 20, 60, 80, 20, 40}) // menu {1, 4}, starting on 0
	fresh := []func(menu []int) Policy{
		func(menu []int) Policy { return &IntervalPolicy{Configs: menu} },
		func(menu []int) Policy { return &HysteresisPolicy{Configs: menu} },
		func(menu []int) Policy { return &PIDPolicy{Configs: menu} },
		func(menu []int) Policy { return &SlopeBanditPolicy{Configs: menu} },
		func(menu []int) Policy { return &ProfileThenCommitPolicy{Configs: menu} },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		k := 1 + int(data[0]%4)
		menu := make([]int, k)
		member := map[int]bool{}
		for i := range menu {
			menu[i] = (int(data[1]) + 3*i) % 8 // distinct for i < 4
			member[menu[i]] = true
		}
		start := int(data[0]/4) % 8
		sched := data[2:]
		const intervals = 320 // past profile-commit's first recommit
		run := func(p Policy) []int {
			m := &Monitor{Current: start}
			choices := make([]int, intervals)
			for i := range choices {
				c := p.Next(m)
				if !member[c] {
					t.Fatalf("%s: decision %d is config %d, not on the menu %v", p.Name(), i, c, menu)
				}
				pos := 0
				for menu[pos] != c {
					pos++
				}
				b := sched[(i*k+pos)%len(sched)]
				m.Record(Sample{Config: c, TPI: float64(1+int(b)) / 64})
				choices[i] = c
			}
			return choices
		}
		for _, mk := range fresh {
			a, b := run(mk(menu)), run(mk(menu))
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: two fresh instances diverge at decision %d: %d vs %d", mk(menu).Name(), i, a[i], b[i])
				}
			}
		}
	})
}

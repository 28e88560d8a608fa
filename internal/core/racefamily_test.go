package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"capsim/internal/flight"
	"capsim/internal/obs"
	"capsim/internal/tech"
	"capsim/internal/workload"
)

// zooRoster mirrors the zoo experiment's contender roster: one fresh
// instance of every adaptive policy over a three-size menu.
func zooRoster() []PolicySpec {
	menu := []int{0, 1, 2}
	return []PolicySpec{
		{Policy: &IntervalPolicy{Configs: menu}},
		{Policy: &HysteresisPolicy{Configs: menu}},
		{Policy: &PIDPolicy{Configs: menu}},
		{Policy: &SlopeBanditPolicy{Configs: menu}},
		{Policy: &ProfileThenCommitPolicy{Configs: menu}},
	}
}

var zooMenuSizes = []int{16, 64, 128}

// recordedRace races specs with a flight collector attached and returns the
// results with each column's published events, in spec order.
func recordedRace(t *testing.T, ctx context.Context, mp *MultiPolicy, specs []PolicySpec, intervals int64) ([]RunResult, [][]flight.Event) {
	t.Helper()
	sink := &captureSink{}
	res, err := mp.Race(flight.WithCollector(ctx, flight.NewCollector(sink)), specs, intervals)
	if err != nil {
		t.Fatalf("Race: %v", err)
	}
	races := sink.byKind(flight.KindRace)
	if len(races) != len(specs) {
		t.Fatalf("%d race columns published, want %d", len(races), len(specs))
	}
	evs := make([][]flight.Event, len(races))
	for j, r := range races {
		evs[j] = r.events
	}
	return res, evs
}

// privateRun drives a private QueueMachine exactly as RunQueue does and
// records, per interval, the fields a race column's flight event derives
// from the machine: configuration, core outcome, drain stalls, TPI sample,
// cumulative time and whether the clock switched.
func privateRun(t *testing.T, b workload.Benchmark, sizes []int, pen int, p Policy, intervals, n int64) (RunResult, []flight.Event) {
	t.Helper()
	q, err := NewQueueMachine(b, 1998, sizes, 0, pen, tech.Micron018)
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(64)
	mon.Current = q.cur
	evs := make([]flight.Event, 0, intervals)
	for iv := int64(0); iv < intervals; iv++ {
		want := p.Next(mon)
		sw0, drain0 := q.clk.Switches(), q.core.Stats().DrainStalls
		if want != q.cur {
			if _, err := q.SetConfig(want); err != nil {
				t.Fatal(err)
			}
		}
		st0 := q.core.Stats()
		s := q.RunInterval(n)
		d := q.core.Stats().Sub(st0)
		s.Interval = iv
		mon.Record(s)
		evs = append(evs, flight.Event{
			Interval:    iv,
			Config:      s.Config,
			Cycles:      d.Cycles,
			Issued:      d.Issued,
			DrainCycles: st0.DrainStalls - drain0,
			TPI:         s.TPI,
			CumTimeNS:   q.TimeNS(),
			Switched:    q.clk.Switches() != sw0,
		})
	}
	return RunResult{Policy: p.Name(), Instrs: q.Instrs(), TimeNS: q.TimeNS(), TPI: q.TotalTPI(), Switches: q.clk.Switches()}, evs
}

func sameRun(a, b RunResult) bool {
	return a.Policy == b.Policy && a.Instrs == b.Instrs && a.TimeNS == b.TimeNS &&
		a.TPI == b.TPI && a.Switches == b.Switches
}

// TestRaceFamilyPenaltyReplay is the race-family differential: for every
// zoo contender × application × switch penalty, a race served from ONE
// shared family (simulated at the first penalty, replayed at the others)
// must equal a private QueueMachine run exactly — aggregates and every
// per-interval flight field the machine determines — and its flight
// columns must equal a cold race's at that penalty field for field.
func TestRaceFamilyPenaltyReplay(t *testing.T) {
	ctx := context.Background()
	const intervals, n = int64(60), int64(2000)
	pens := []int{0, 50, 200}
	defer ResetPolicyFamilies()
	for _, app := range []string{"flutter", "squall", "turb3d", "vortex"} {
		b := workload.MustByName(app)
		ResetPolicyFamilies()
		sharedRes := make([][]RunResult, len(pens))
		sharedEvs := make([][][]flight.Event, len(pens))
		for pi, pen := range pens {
			mp, err := NewMultiPolicy(b, 1998, zooMenuSizes, n, pen, tech.Micron018)
			if err != nil {
				t.Fatal(err)
			}
			sharedRes[pi], sharedEvs[pi] = recordedRace(t, ctx, mp, zooRoster(), intervals)
			// The contenders' family, plus the fixed roster's behind the
			// recorder's oracle; a per-penalty family would add more.
			if got := raceFamilies.Len(); got != 2 {
				t.Fatalf("%s pen=%d: %d race families, want the shared contenders' and fixed roster's", app, pen, got)
			}
			for j, spec := range zooRoster() {
				name := fmt.Sprintf("%s/pen=%d/%s", app, pen, spec.Policy.Name())
				want, wantEvs := privateRun(t, b, zooMenuSizes, pen, spec.Policy, intervals, n)
				if !sameRun(sharedRes[pi][j], want) {
					t.Errorf("%s: shared-family race diverged from private machine\n race:    %+v\n private: %+v", name, sharedRes[pi][j], want)
				}
				for iv, w := range wantEvs {
					g := sharedEvs[pi][j][iv]
					if g.Config != w.Config || g.Cycles != w.Cycles || g.Issued != w.Issued || g.DrainCycles != w.DrainCycles ||
						g.TPI != w.TPI || g.CumTimeNS != w.CumTimeNS || g.Switched != w.Switched {
						t.Fatalf("%s interval %d: flight event diverged from private machine\n race:    %+v\n private: %+v", name, iv, g, w)
					}
				}
			}
		}
		for pi, pen := range pens {
			ResetPolicyFamilies()
			mp, err := NewMultiPolicy(b, 1998, zooMenuSizes, n, pen, tech.Micron018)
			if err != nil {
				t.Fatal(err)
			}
			cold, coldEvs := recordedRace(t, ctx, mp, zooRoster(), intervals)
			for j := range cold {
				if !sameRun(cold[j], sharedRes[pi][j]) || !reflect.DeepEqual(coldEvs[j], sharedEvs[pi][j]) {
					t.Errorf("%s pen=%d column %d: shared-family flight column differs from a cold race's", app, pen, j)
				}
			}
		}
	}
}

// TestRaceFamilyPrefix pins prefix replay: a 1200-interval race read after a
// 1500-interval race on the same family (the ablation-interval →
// ablation-switch pattern) equals a cold 1200-interval race exactly.
func TestRaceFamilyPrefix(t *testing.T) {
	ctx := context.Background()
	b := workload.MustByName("vortex")
	sizes := []int{16, 64}
	roster := func() []PolicySpec { return []PolicySpec{{Policy: &IntervalPolicy{Configs: []int{0, 1}}}} }
	ResetPolicyFamilies()
	defer ResetPolicyFamilies()
	long, err := NewMultiPolicy(b, 1998, sizes, 2000, -1, tech.Micron018)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := long.Race(ctx, roster(), 1500); err != nil {
		t.Fatal(err)
	}
	mp, err := NewMultiPolicy(b, 1998, sizes, 2000, 50, tech.Micron018)
	if err != nil {
		t.Fatal(err)
	}
	prefix, prefixEvs := recordedRace(t, ctx, mp, roster(), 1200)
	ResetPolicyFamilies()
	cold, coldEvs := recordedRace(t, ctx, mp, roster(), 1200)
	if !sameRun(prefix[0], cold[0]) {
		t.Errorf("prefix replay %+v != cold race %+v", prefix[0], cold[0])
	}
	if !reflect.DeepEqual(prefixEvs, coldEvs) {
		t.Error("prefix replay's flight column differs from a cold race's")
	}
}

// TestFixedColumnsSimulatedOnce pins the one memo behind the fixed columns:
// Traces simulates the fixed roster once; every RunFixed, RunOracle and the
// recorded race's oracle replay it; and policy.cells counts only the cells
// Race returns.
func TestFixedColumnsSimulatedOnce(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	ResetPolicyFamilies()
	defer ResetPolicyFamilies()
	ctx := context.Background()
	const intervals = 40
	mp, err := NewMultiPolicy(workload.MustByName("flutter"), 1998, zooMenuSizes, 2000, 50, tech.Micron018)
	if err != nil {
		t.Fatal(err)
	}
	sim0, cells0 := obsRaceSimCells.Value(), obsPolicyCells.Value()
	fixedCells := int64(len(zooMenuSizes)) * intervals
	if _, err := mp.Traces(ctx, intervals); err != nil {
		t.Fatal(err)
	}
	if d := obsRaceSimCells.Value() - sim0; d != fixedCells {
		t.Fatalf("Traces simulated %d cells, want %d", d, fixedCells)
	}
	for cfg := range zooMenuSizes {
		if _, err := mp.RunFixed(ctx, cfg, intervals); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mp.RunOracle(ctx, intervals); err != nil {
		t.Fatal(err)
	}
	if d := obsRaceSimCells.Value() - sim0 - fixedCells; d != 0 {
		t.Fatalf("fixed reads after Traces simulated %d cells, want 0", d)
	}
	roster := zooRoster()
	raceCells := int64(len(roster)) * intervals
	recordedRace(t, ctx, mp, roster, intervals)
	if d := obsRaceSimCells.Value() - sim0; d != fixedCells+raceCells {
		t.Errorf("policy.race_sim_cells rose by %d, want %d fixed + %d race", d, fixedCells, raceCells)
	}
	if d := obsPolicyCells.Value() - cells0; d != raceCells {
		t.Errorf("policy.cells rose by %d, want the race's %d", d, raceCells)
	}
}

// funcPolicy is a policy whose behaviour lives in a closure, which %#v
// cannot tell apart from another closure of the same literal.
type funcPolicy struct{ next func(*Monitor) int }

func (p funcPolicy) Name() string        { return "func" }
func (p funcPolicy) Next(m *Monitor) int { return p.next(m) }

// TestRaceFamilyKeys pins roster canonicalization: equal fresh rosters
// share a key, a changed tunable does not, rosters %#v cannot identify race
// privately, and a memo hit leaves the caller's instances untouched.
func TestRaceFamilyKeys(t *testing.T) {
	a, okA := rosterKey(zooRoster())
	b, okB := rosterKey(zooRoster())
	if !okA || !okB || a != b {
		t.Fatalf("two fresh zoo rosters: keys %q (%v) and %q (%v), want equal", a, okA, b, okB)
	}
	tuned := zooRoster()
	tuned[1].Policy.(*HysteresisPolicy).DwellMin = 9
	if c, ok := rosterKey(tuned); !ok || c == a {
		t.Errorf("changed tunable kept the roster key")
	}
	shared := &IntervalPolicy{Configs: []int{0, 1}}
	for name, specs := range map[string][]PolicySpec{
		"aliased instance": {{Policy: shared}, {Policy: shared}},
		"closure":          {{Policy: funcPolicy{func(*Monitor) int { return 0 }}}},
		"nil policy":       {{}},
	} {
		if _, ok := rosterKey(specs); ok {
			t.Errorf("%s: roster accepted as a memo key", name)
		}
	}

	ctx := context.Background()
	ResetPolicyFamilies()
	defer ResetPolicyFamilies()
	mp, err := NewMultiPolicy(workload.MustByName("vortex"), 1998, []int{16, 64}, 2000, 20, tech.Micron018)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := mp.Race(ctx, []PolicySpec{{Policy: &IntervalPolicy{Configs: []int{0, 1}}}}, 20)
	if err != nil {
		t.Fatal(err)
	}
	mine := &IntervalPolicy{Configs: []int{0, 1}}
	if _, err := mp.Race(ctx, []PolicySpec{{Policy: mine}}, 20); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mine, &IntervalPolicy{Configs: []int{0, 1}}) {
		t.Errorf("memo hit advanced the caller's instance: %#v", mine)
	}
	if raceFamilies.Len() != 1 {
		t.Errorf("%d race families after two equal rosters, want 1", raceFamilies.Len())
	}

	// A same-name copy of the profile with one ILP field changed is another
	// stream: it races in a family of its own, to its own numbers.
	mod := workload.MustByName("vortex")
	mod.ILP.Base.SrcWeights[2] += 0.3
	race := func() []RunResult {
		mp, err := NewMultiPolicy(mod, 1998, []int{16, 64}, 2000, 20, tech.Micron018)
		if err != nil {
			t.Fatal(err)
		}
		r, err := mp.Race(ctx, []PolicySpec{{Policy: &IntervalPolicy{Configs: []int{0, 1}}}}, 20)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	got := race()
	if raceFamilies.Len() != 2 {
		t.Errorf("%d race families after a changed profile, want 2", raceFamilies.Len())
	}
	ResetPolicyFamilies()
	if want := race(); !reflect.DeepEqual(got, want) || reflect.DeepEqual(got, orig) {
		t.Errorf("changed profile raced to %+v; a cold race gives %+v, the original %+v", got, want, orig)
	}
}

// countdownCtx is a context that reports cancellation after a fixed number
// of Err polls — a deterministic stand-in for a client giving up mid-race.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestRaceFamilyCancelledExtension mirrors TestCancelledRunDoesNotPoisonMemo
// at the race-family tier: an extension cancelled mid-way leaves the family
// consistent at the interval it reached, and a later caller with a live
// context finishes byte-identical to a cold race.
func TestRaceFamilyCancelledExtension(t *testing.T) {
	b := workload.MustByName("flutter")
	const intervals = 60
	ResetPolicyFamilies()
	defer ResetPolicyFamilies()
	mp, err := NewMultiPolicy(b, 1998, zooMenuSizes, 2000, 50, tech.Micron018)
	if err != nil {
		t.Fatal(err)
	}
	_, err = mp.Race(&countdownCtx{Context: context.Background(), left: 25}, zooRoster(), intervals)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled race returned %v, want context.Canceled", err)
	}
	fam, err := mp.raceFamilyFor(zooRoster())
	if err != nil {
		t.Fatal(err)
	}
	fam.mu.Lock()
	done, logged := fam.done, len(fam.log[0])
	fam.mu.Unlock()
	if done != 25 || logged != 25 {
		t.Fatalf("cancelled family at %d intervals (%d logged), want 25", done, logged)
	}
	ctx := context.Background()
	resumed, resumedEvs := recordedRace(t, ctx, mp, zooRoster(), intervals)
	ResetPolicyFamilies()
	cold, coldEvs := recordedRace(t, ctx, mp, zooRoster(), intervals)
	for j := range cold {
		if !sameRun(resumed[j], cold[j]) {
			t.Errorf("column %d: resumed %+v != cold %+v", j, resumed[j], cold[j])
		}
	}
	if !reflect.DeepEqual(resumedEvs, coldEvs) {
		t.Error("resumed race's flight columns differ from a cold race's")
	}
}

// TestRaceFamilyConcurrent races one roster from several goroutines at
// different penalties and prefixes at once, while others read the fixed
// roster's columns through Traces, RunFixed and RunOracle on the same menu;
// every result must equal the same call run cold and alone. Run with -race
// to check the family's locking and the lock-free prefix views.
func TestRaceFamilyConcurrent(t *testing.T) {
	ctx := context.Background()
	b := workload.MustByName("vortex")
	sizes := []int{16, 64}
	pens := []int{0, 10, 20, 50, 100, 200}
	const kinds = 4 // Race, Traces, RunFixed, RunOracle
	// call runs job k: engine k%kinds at penalty and prefix k/kinds.
	call := func(k int) (any, error) {
		i := k / kinds
		mp, err := NewMultiPolicy(b, 1998, sizes, 2000, pens[i], tech.Micron018)
		if err != nil {
			return nil, err
		}
		intervals := int64(40 + 10*i)
		switch k % kinds {
		case 0:
			return mp.Race(ctx, []PolicySpec{{Policy: &IntervalPolicy{Configs: []int{0, 1}}}}, intervals)
		case 1:
			return mp.Traces(ctx, intervals)
		case 2:
			return mp.RunFixed(ctx, i%len(sizes), intervals)
		default:
			return mp.RunOracle(ctx, intervals)
		}
	}
	jobs := kinds * len(pens)
	want := make([]any, jobs)
	for k := range want {
		ResetPolicyFamilies()
		var err error
		if want[k], err = call(k); err != nil {
			t.Fatal(err)
		}
	}
	ResetPolicyFamilies()
	defer ResetPolicyFamilies()
	got := make([]any, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	wg.Add(jobs)
	for k := range got {
		go func(k int) {
			defer wg.Done()
			got[k], errs[k] = call(k)
		}(k)
	}
	wg.Wait()
	for k := range got {
		if errs[k] != nil {
			t.Fatalf("job %d: %v", k, errs[k])
		}
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("job %d (engine %d, pen=%d): concurrent %+v != serial cold %+v", k, k%kinds, pens[k/kinds], got[k], want[k])
		}
	}
}

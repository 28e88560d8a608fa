package core

import (
	"context"
	"fmt"
	"sync"

	"capsim/internal/clock"
	"capsim/internal/flight"
	"capsim/internal/memo"
	"capsim/internal/obs"
	"capsim/internal/ooo"
	"capsim/internal/palacharla"
	"capsim/internal/tech"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// obsPolicyCells counts (policy column × interval) cells: those an interval
// family simulates, plus those every Race call returns, replayed or
// simulated (policy.race_sim_cells counts the simulated ones).
var obsPolicyCells = obs.NewCounter("policy.cells")

// intervalKey identifies one interval family: the per-size, per-interval raw
// core outcomes (cycles, issued) of an application's stream chopped into
// n-instruction intervals. The key deliberately EXCLUDES the clock-switch
// penalty and the feature size: interval outcomes are pure core statistics —
// periods and penalties are applied at replay time — so fig12/fig13, the
// per-interval oracle, and every ablation penalty point share one family.
type intervalKey struct {
	app   string
	seed  uint64
	sizes string // fmt.Sprint of the size list (order matters)
	n     int64  // instructions per interval
}

// intervalFamily is the memoized computation behind the one-pass interval
// engines: a live MultiCore (one member per queue size) advancing through
// the shared instruction stream, plus the per-size append-only streams of
// raw interval outcomes it has produced so far. Consumers extend it to the
// interval count they need and replay the prefix; a later consumer needing
// more intervals resumes the same cores — the family is a fresh full-length
// run paused at its high-water mark, so prefixes are bit-identical at every
// extension.
type intervalFamily struct {
	mu     sync.Mutex
	mc     *ooo.MultiCore
	stream workload.InstrSource
	n      int64
	done   int64
	cycles [][]int64 // [size][interval]: core cycles of that interval
	issued [][]int64 // [size][interval]: instructions issued (>= n)
}

// families memoizes interval families per key with singleflight semantics;
// the family itself serializes extension under its own mutex.
var families memo.Memo[intervalKey, *intervalFamily]

// ResetPolicyFamilies drops all memoized interval and race families (tests
// and long-lived processes; one-shot CLI runs never need it).
func ResetPolicyFamilies() {
	families.Reset()
	raceFamilies.Reset()
}

// SetPolicyFamilyCap bounds the interval-family and race-family memos to at
// most n entries each, with deterministic LRU eviction (memo.SetCap); n <= 0
// restores the unbounded default. Each family holds a live MultiCore, so a
// long-lived process racing fresh seeds must cap them.
func SetPolicyFamilyCap(n int) {
	families.SetCap(n)
	raceFamilies.SetCap(n)
}

// familyFor returns the (possibly already advanced) interval family for the
// given application and size list.
func familyFor(b workload.Benchmark, seed uint64, sizes []int, n int64) (*intervalFamily, error) {
	key := intervalKey{app: b.Name, seed: seed, sizes: fmt.Sprint(sizes), n: n}
	return families.Do(key, func() (*intervalFamily, error) {
		if len(sizes) == 0 {
			return nil, fmt.Errorf("core: no queue sizes")
		}
		cfgs := make([]ooo.Config, len(sizes))
		for i, w := range sizes {
			if w < 1 {
				return nil, fmt.Errorf("core: queue size %d invalid", w)
			}
			cfgs[i] = ooo.PaperConfig(w)
		}
		mc, err := ooo.NewMultiCore(cfgs)
		if err != nil {
			return nil, err
		}
		return &intervalFamily{
			mc:     mc,
			stream: trace.OpsFor(b, seed).Cursor(),
			n:      n,
			cycles: make([][]int64, len(sizes)),
			issued: make([][]int64, len(sizes)),
		}, nil
	})
}

// extendTo advances the family to at least `intervals` materialized
// intervals, one lockstep RunEach round per interval. Partial progress is
// kept on cancellation — the family stays consistent at whatever interval
// count it reached. Callers must hold f.mu.
func (f *intervalFamily) extendTo(ctx context.Context, intervals int64) error {
	for f.done < intervals {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i, st := range f.mc.RunEach(f.stream, f.n) {
			f.cycles[i] = append(f.cycles[i], st.Cycles)
			f.issued[i] = append(f.issued[i], st.Issued)
		}
		f.done++
		obsPolicyCells.Add1(int64(len(f.cycles)))
	}
	return nil
}

// rows extends the family to `intervals` and returns copies of the
// per-size outcome prefixes. Copies, not views: another goroutine may
// extend (and so reallocate) the live streams as soon as the lock drops.
func (f *intervalFamily) rows(ctx context.Context, intervals int64) (cycles, issued [][]int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.extendTo(ctx, intervals); err != nil {
		return nil, nil, err
	}
	cycles = make([][]int64, len(f.cycles))
	issued = make([][]int64, len(f.issued))
	for i := range f.cycles {
		cycles[i] = append([]int64(nil), f.cycles[i][:intervals]...)
		issued[i] = append([]int64(nil), f.issued[i][:intervals]...)
	}
	f.mc.PublishObs()
	return cycles, issued, nil
}

// MultiPolicy races interval policies over one application without
// re-simulating the core per policy. Fixed-configuration policies (the
// paper's baselines, and the columns the per-interval oracle minimizes
// over) replay the memoized interval family — raw (cycles, issued) outcomes
// with the policy's clock arithmetic applied in replay order, bit-identical
// to a private QueueMachine. Stateful policies that actually reconfigure
// run as lockstep columns of one MultiCore over the shared stream, each
// with its own monitor and resizes — mirroring MultiCombined's row/cell
// structure with policies as columns — memoized per roster as a race family
// whose columns every penalty replays through its own clock.
type MultiPolicy struct {
	b       workload.Benchmark
	seed    uint64
	sizes   []int
	n       int64
	penalty int
	sources []clock.Source
	cycs    []float64
}

// PolicySpec is one contender in a Race. Policies are stateful, and Race
// takes ownership of the instances: when the roster misses the race-family
// memo they become the new family's columns and advance with it; on a hit
// (an equal roster raced before, see rosterKey) the family's own instances
// serve the race and the caller's are not advanced. Give each spec its own
// fresh instance, and do not reuse it after the call.
type PolicySpec struct {
	Policy Policy
}

// NewMultiPolicy builds the replay engine for one application. The
// parameters mirror NewQueueMachine (initial configuration 0, the
// interval-driver convention); penaltyCycles < 0 selects the default
// clock-switch penalty.
func NewMultiPolicy(b workload.Benchmark, seed uint64, sizes []int, n int64, penaltyCycles int, f tech.FeatureSize) (*MultiPolicy, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("core: no queue sizes")
	}
	tp := tech.ForFeature(f)
	configs := make([]Config, len(sizes))
	sources := make([]clock.Source, len(sizes))
	cycs := make([]float64, len(sizes))
	for i, w := range sizes {
		if w < 1 {
			return nil, fmt.Errorf("core: queue size %d invalid", w)
		}
		cyc := palacharla.CycleTime(palacharla.Queue{Entries: w, IssueWidth: 8}, tp)
		configs[i] = Config{ID: i, Label: fmt.Sprintf("IQ=%d", w), CycleNS: cyc}
		sources[i] = clock.Source{ID: i, PeriodNS: cyc, Label: configs[i].Label}
		cycs[i] = cyc
	}
	if err := validateConfigs(configs); err != nil {
		return nil, err
	}
	return &MultiPolicy{
		b:       b,
		seed:    seed,
		sizes:   sizes,
		n:       n,
		penalty: penaltyCycles,
		sources: sources,
		cycs:    cycs,
	}, nil
}

// Traces returns per-size, per-interval TPI from the memoized family — the
// ProfileQueueTraces product. The expression replicates
// QueueMachine.RunInterval's float operation order (cycles × period, divided
// by issued), so each trace is bit-identical to a private machine.
func (mp *MultiPolicy) Traces(ctx context.Context, intervals int64) ([][]float64, error) {
	fam, err := familyFor(mp.b, mp.seed, mp.sizes, mp.n)
	if err != nil {
		return nil, err
	}
	cycles, issued, err := fam.rows(ctx, intervals)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(mp.sizes))
	for i := range out {
		out[i] = make([]float64, intervals)
		for iv := int64(0); iv < intervals; iv++ {
			out[i][iv] = float64(cycles[i][iv]) * mp.cycs[i] / float64(issued[i][iv])
		}
	}
	if flight.Active(ctx) {
		mp.publishTraceRuns(ctx, cycles, issued, out, intervals)
	}
	return out, nil
}

// RunFixed replays RunQueue(FixedPolicy{cfg}) from the family: the same
// clock.System performs the same Advance/Select sequence a private
// QueueMachine would, in the same order, over the memoized raw outcomes.
//
// The one reconfiguration a fixed policy performs — interval 0, away from
// the construction default 0 — happens on an EMPTY core, so its drain is
// exactly zero stall cycles and the family's column (a core built at the
// target size) observes the identical instruction stream; the transition
// differential tests pin this against direct simulation.
func (mp *MultiPolicy) RunFixed(ctx context.Context, cfg int, intervals int64) (RunResult, error) {
	if cfg < 0 || cfg >= len(mp.sizes) {
		return RunResult{}, fmt.Errorf("core: fixed config %d outside [0,%d)", cfg, len(mp.sizes))
	}
	fam, err := familyFor(mp.b, mp.seed, mp.sizes, mp.n)
	if err != nil {
		return RunResult{}, err
	}
	cycles, issued, err := fam.rows(ctx, intervals)
	if err != nil {
		return RunResult{}, err
	}
	clk, err := clock.NewSystem(mp.sources, 0, mp.penalty)
	if err != nil {
		return RunResult{}, err
	}
	rec := flight.Active(ctx)
	var (
		evs      []flight.Event
		oCfg     []int
		oNS      []float64
		regretNS float64
	)
	if rec {
		evs = make([]flight.Event, 0, intervals)
		oCfg, oNS = mp.flightOracle(cycles, intervals)
	}
	var timeNS float64
	var instrs int64
	var pen0 float64 // interval-0 switch penalty (ledger attribution)
	if cfg != 0 {
		// QueueMachine.SetConfig order: drain at the old clock (zero
		// cycles — the core is empty at interval 0), then the switch
		// penalty at the old period.
		timeNS += clk.Advance(0)
		pen, err := clk.Select(cfg)
		if err != nil {
			return RunResult{}, err
		}
		timeNS += pen
		pen0 = pen
	}
	for iv := int64(0); iv < intervals; iv++ {
		dt := clk.Advance(cycles[cfg][iv])
		instrs += issued[cfg][iv]
		timeNS += dt
		if rec {
			var pen float64
			if iv == 0 {
				pen = pen0
			}
			tot := pen + dt
			regret := tot - oNS[iv]
			regretNS += regret
			evs = append(evs, flight.Event{
				Interval:    iv,
				Config:      cfg,
				Size:        mp.sizes[cfg],
				Cycles:      cycles[cfg][iv],
				Issued:      issued[cfg][iv],
				PeriodNS:    mp.cycs[cfg],
				PenaltyNS:   pen,
				AdvNS:       dt,
				CumTimeNS:   timeNS,
				TPI:         dt / float64(issued[cfg][iv]),
				OracleCfg:   oCfg[iv],
				OracleNS:    oNS[iv],
				RegretNS:    regret,
				CumRegretNS: regretNS,
				Switched:    iv == 0 && cfg != 0,
			})
		}
	}
	res := RunResult{Policy: FixedPolicy{Config: cfg}.Name(), Instrs: instrs, TimeNS: timeNS, Switches: clk.Switches()}
	if instrs != 0 {
		res.TPI = timeNS / float64(instrs)
	}
	if rec {
		meta := mp.flightMeta(res.Policy, flight.KindFixed)
		flight.Publish(ctx, meta, evs, flightEnd(intervals, instrs, res.Switches, timeNS, regretNS))
	}
	return res, nil
}

// Race runs N stateful policies as lockstep columns of ONE MultiCore over
// the shared instruction stream. The columns' core outcomes come from the
// roster's memoized race family (racefamily.go), simulated once for every
// penalty and every prefix; each call replays its prefix through a fresh
// per-column clock.System at this engine's penalty. Per-column results are
// bit-identical to private QueueMachine runs: member cores consume the
// stream exactly as they would privately, resizes between rounds reproduce
// private-machine behaviour (see ooo.MultiCore.Cores), and the replay
// charges each switch in QueueMachine.SetConfig's exact order.
func (mp *MultiPolicy) Race(ctx context.Context, specs []PolicySpec, intervals int64) ([]RunResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no policies to race")
	}
	fam, err := mp.raceFamilyFor(specs)
	if err != nil {
		return nil, err
	}
	steps, err := fam.steps(ctx, intervals)
	if err != nil {
		return nil, err
	}
	// Flight recording: the oracle reference comes from the memoized interval
	// family (materialized here if no other consumer has yet — the same pass
	// Traces replays).
	rec := flight.Active(ctx)
	var (
		oCfg []int
		oNS  []float64
	)
	if rec {
		ifam, err := familyFor(mp.b, mp.seed, mp.sizes, mp.n)
		if err != nil {
			return nil, err
		}
		famCycles, _, err := ifam.rows(ctx, intervals)
		if err != nil {
			return nil, err
		}
		oCfg, oNS = mp.flightOracle(famCycles, intervals)
	}
	out := make([]RunResult, len(specs))
	for j, spec := range specs {
		res, evs, regretNS, err := mp.replayRace(steps[j], rec, oCfg, oNS)
		if err != nil {
			return nil, err
		}
		res.Policy = spec.Policy.Name()
		out[j] = res
		if rec {
			meta := mp.flightMeta(res.Policy, flight.KindRace)
			flight.Publish(ctx, meta, evs, flightEnd(intervals, res.Instrs, res.Switches, res.TimeNS, regretNS))
		}
	}
	obsPolicyCells.Add1(int64(len(specs)) * intervals)
	return out, nil
}

// replayRace replays one race column's log through a fresh clock.System at
// this engine's penalty. A switch is charged in QueueMachine.SetConfig's
// order — drain at the old clock, then the switch penalty at the old period
// — before the interval advances at the new clock. When rec it also builds
// the column's flight events from the same values, returning them with the
// column's cumulative regret.
func (mp *MultiPolicy) replayRace(steps []raceStep, rec bool, oCfg []int, oNS []float64) (RunResult, []flight.Event, float64, error) {
	clk, err := clock.NewSystem(mp.sources, 0, mp.penalty)
	if err != nil {
		return RunResult{}, nil, 0, err
	}
	var (
		evs      []flight.Event
		timeNS   float64
		regretNS float64
		instrs   int64
		cur      int
	)
	if rec {
		evs = make([]flight.Event, 0, len(steps))
	}
	for iv, s := range steps {
		var drainNS, penNS float64
		switched := s.cfg != cur
		if switched {
			drainNS = clk.Advance(s.drain)
			timeNS += drainNS
			if penNS, err = clk.Select(s.cfg); err != nil {
				return RunResult{}, nil, 0, err
			}
			timeNS += penNS
			cur = s.cfg
		}
		dt := clk.Advance(s.cycles)
		instrs += s.issued
		timeNS += dt
		if rec {
			tot := drainNS + penNS + dt
			// Race columns diverge from the family columns after a resize,
			// so an interval can occasionally beat every family column;
			// regret vs the family oracle is floored at zero to keep the
			// ledger's monotonicity invariant meaningful.
			regret := tot - oNS[iv]
			if regret < 0 {
				regret = 0
			}
			regretNS += regret
			evs = append(evs, flight.Event{
				Interval:    int64(iv),
				Config:      cur,
				Size:        mp.sizes[cur],
				Cycles:      s.cycles,
				Issued:      s.issued,
				PeriodNS:    mp.cycs[cur],
				DrainCycles: s.drain,
				DrainNS:     drainNS,
				PenaltyNS:   penNS,
				AdvNS:       dt,
				CumTimeNS:   timeNS,
				TPI:         dt / float64(s.issued),
				OracleCfg:   oCfg[iv],
				OracleNS:    oNS[iv],
				RegretNS:    regret,
				CumRegretNS: regretNS,
				Switched:    switched,
			})
		}
	}
	res := RunResult{Instrs: instrs, TimeNS: timeNS, Switches: clk.Switches()}
	if instrs != 0 {
		res.TPI = timeNS / float64(instrs)
	}
	return res, evs, regretNS, nil
}

// RunPolicyStudy is the interval drivers' entry point: one policy-driven run
// of `intervals` intervals of `n` instructions at initial configuration 0.
// Fixed policies replay the memoized interval family and stateful policies
// run through the lockstep Race engine; both are bit-identical to a private
// QueueMachine driven by RunQueue (TestMultiPolicyTransitionCosts).
func RunPolicyStudy(ctx context.Context, b workload.Benchmark, seed uint64, sizes []int, p Policy, intervals, n int64, penaltyCycles int, f tech.FeatureSize) (RunResult, error) {
	if err := ctx.Err(); err != nil {
		return RunResult{}, err
	}
	mp, err := NewMultiPolicy(b, seed, sizes, n, penaltyCycles, f)
	if err != nil {
		return RunResult{}, err
	}
	if fp, ok := p.(FixedPolicy); ok {
		return mp.RunFixed(ctx, fp.Config, intervals)
	}
	res, err := mp.Race(ctx, []PolicySpec{{Policy: p}}, intervals)
	if err != nil {
		return RunResult{}, err
	}
	return res[0], nil
}

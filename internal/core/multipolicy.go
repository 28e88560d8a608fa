package core

import (
	"context"
	"fmt"

	"capsim/internal/clock"
	"capsim/internal/flight"
	"capsim/internal/obs"
	"capsim/internal/tech"
	"capsim/internal/workload"
)

// obsPolicyCells counts the (policy column × interval) cells every Race
// call returns, replayed or simulated; policy.race_sim_cells counts the
// simulated ones, the fixed columns included.
var obsPolicyCells = obs.NewCounter("policy.cells")

// ResetPolicyFamilies drops all memoized race families (tests and
// long-lived processes; one-shot CLI runs never need it).
func ResetPolicyFamilies() { raceFamilies.Reset() }

// SetPolicyFamilyCap bounds the race-family memo to at most n entries, with
// deterministic LRU eviction (memo.SetCap); n <= 0 restores the unbounded
// default. Each family holds a live MultiCore, so a long-lived process
// racing fresh seeds must cap it.
func SetPolicyFamilyCap(n int) { raceFamilies.SetCap(n) }

// MultiPolicy races interval policies over one application without
// re-simulating the core per policy. Every policy runs as a lockstep column
// of one MultiCore over the shared stream, with its own monitor and resizes
// — mirroring MultiCombined's row/cell structure with policies as columns —
// memoized per roster as a race family whose columns every penalty replays
// through its own clock. The paper's fixed baselines, and the columns the
// per-interval oracle minimizes over, are one such roster: FixedPolicy{i}
// for every menu size i (fixedColumns).
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
	sources := make([]clock.Source, len(sizes))
	cycs := make([]float64, len(sizes))
	for i, w := range sizes {
		if w < 1 {
			return nil, fmt.Errorf("core: queue size %d invalid", w)
		}
		cycs[i] = QueueCycleNS(w, tp)
		sources[i] = clock.Source{ID: i, PeriodNS: cycs[i], Label: fmt.Sprintf("IQ=%d", w)}
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

// fixedColumns returns the first `intervals` steps of the fixed roster's
// race family: column i is FixedPolicy{Config: i}. Its one resize, at
// interval 0 on an empty core, drains no cycles, so every step is the raw
// (cycles, issued) outcome of a core of size i — the rows Traces, RunFixed,
// RunOracle and the recorder's oracle read.
func (mp *MultiPolicy) fixedColumns(ctx context.Context, intervals int64) ([][]raceStep, error) {
	specs := make([]PolicySpec, len(mp.sizes))
	for i := range specs {
		specs[i].Policy = FixedPolicy{Config: i}
	}
	fam, err := mp.raceFamilyFor(specs)
	if err != nil {
		return nil, err
	}
	return fam.steps(ctx, intervals)
}

// Traces returns per-size, per-interval TPI from the fixed columns — the
// ProfileQueueTraces product. The expression replicates
// QueueMachine.RunInterval's float operation order (cycles × period, divided
// by issued), so each trace is bit-identical to a private machine.
func (mp *MultiPolicy) Traces(ctx context.Context, intervals int64) ([][]float64, error) {
	cols, err := mp.fixedColumns(ctx, intervals)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(cols))
	for i, col := range cols {
		out[i] = make([]float64, intervals)
		for iv, s := range col {
			out[i][iv] = float64(s.cycles) * mp.cycs[i] / float64(s.issued)
		}
	}
	if flight.Active(ctx) {
		if err := mp.publishTraceRuns(ctx, cols); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunFixed replays RunQueue(FixedPolicy{cfg}): the fixed roster's cfg
// column, replayed from the construction default 0. Its interval times are
// never below the oracle, which minimizes over it, so replayRace's regret
// floor never engages.
func (mp *MultiPolicy) RunFixed(ctx context.Context, cfg int, intervals int64) (RunResult, error) {
	if cfg < 0 || cfg >= len(mp.sizes) {
		return RunResult{}, fmt.Errorf("core: fixed config %d outside [0,%d)", cfg, len(mp.sizes))
	}
	cols, err := mp.fixedColumns(ctx, intervals)
	if err != nil {
		return RunResult{}, err
	}
	var oracle *oracleRef
	if flight.Active(ctx) {
		oracle = mp.flightOracle(cols)
	}
	return mp.replayRace(ctx, cols[cfg], 0, FixedPolicy{Config: cfg}.Name(), flight.KindFixed, oracle)
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
	var oracle *oracleRef
	if flight.Active(ctx) {
		cols, err := mp.fixedColumns(ctx, intervals)
		if err != nil {
			return nil, err
		}
		oracle = mp.flightOracle(cols)
	}
	out := make([]RunResult, len(specs))
	for j, spec := range specs {
		if out[j], err = mp.replayRace(ctx, steps[j], 0, spec.Policy.Name(), flight.KindRace, oracle); err != nil {
			return nil, err
		}
	}
	obsPolicyCells.Add(int64(len(specs)) * intervals)
	return out, nil
}

// replayRace replays one column's log through a fresh clock.System at this
// engine's penalty, starting at configuration start, and returns the run
// under name. A switch is charged in QueueMachine.SetConfig's order — drain
// at the old clock, then the switch penalty at the old period — before the
// interval advances at the new clock. When oracle is non-nil (the recorder
// is on) it also builds the column's flight events from the same values and
// publishes them under kind.
func (mp *MultiPolicy) replayRace(ctx context.Context, steps []raceStep, start int, name, kind string, oracle *oracleRef) (RunResult, error) {
	clk, err := clock.NewSystem(mp.sources, start, mp.penalty)
	if err != nil {
		return RunResult{}, err
	}
	var (
		evs      []flight.Event
		timeNS   float64
		regretNS float64
		instrs   int64
		cur      = start
	)
	if oracle != nil {
		evs = make([]flight.Event, 0, len(steps))
	}
	for iv, s := range steps {
		var drainNS, penNS float64
		switched := s.cfg != cur
		if switched {
			drainNS = clk.Advance(s.drain)
			timeNS += drainNS
			if penNS, err = clk.Select(s.cfg); err != nil {
				return RunResult{}, err
			}
			timeNS += penNS
			cur = s.cfg
		}
		dt := clk.Advance(s.cycles)
		instrs += s.issued
		timeNS += dt
		if oracle != nil {
			tot := drainNS + penNS + dt
			// Race columns diverge from the fixed columns after a resize,
			// so an interval can occasionally beat every fixed column;
			// regret vs the oracle is floored at zero to keep the ledger's
			// monotonicity invariant meaningful.
			regret := tot - oracle.ns[iv]
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
				OracleCfg:   oracle.cfg[iv],
				OracleNS:    oracle.ns[iv],
				RegretNS:    regret,
				CumRegretNS: regretNS,
				Switched:    switched,
			})
		}
	}
	res := RunResult{Policy: name, Instrs: instrs, TimeNS: timeNS, Switches: clk.Switches()}
	if instrs != 0 {
		res.TPI = timeNS / float64(instrs)
	}
	if oracle != nil {
		flight.Publish(ctx, mp.flightMeta(name, kind), evs, flightEnd(int64(len(steps)), res, regretNS))
	}
	return res, nil
}

// RunPolicyStudy is the interval drivers' entry point: one policy-driven run
// of `intervals` intervals of `n` instructions at initial configuration 0.
// Fixed policies replay the fixed roster's columns and stateful policies
// race their own roster; both are bit-identical to a private QueueMachine
// driven by RunQueue (TestMultiPolicyTransitionCosts).
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

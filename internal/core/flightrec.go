package core

import (
	"context"

	"capsim/internal/flight"
)

// This file is the flight-recorder emission layer of the one-pass interval
// engines (multipolicy.go). The recorder obeys the obs publication contract:
// Traces/RunFixed/RunOracle/Race check flight.Active(ctx) ONCE per run,
// assemble events in private slices stamped FROM the engines' own
// accumulators (the exact float operation order — which is what makes
// flight.CheckRun's invariants exact), and publish whole run columns at the
// end of the run. Nothing here feeds back into a simulated value; renders
// are byte-identical recorder-on/off.
//
// The per-interval oracle reference is the TIME-domain minimum over the
// fixed columns (min over i of cycles[i][iv] × period[i]), not the min-TPI
// column the ablation driver prints. Minimizing in the same unit the columns
// accumulate is what makes trace/fixed regret exactly non-negative and the
// oracle column's regret exactly zero; the two minima pick the same column
// except on sub-ulp ties, so policy orderings agree.

// oracleRef is the per-interval oracle reference a recorded column's regret
// is measured against: the minimizing configuration and its time.
type oracleRef struct {
	cfg []int
	ns  []float64
}

// flightOracle computes the per-interval oracle reference over the fixed
// columns: for each interval, the column index minimizing
// float64(cycles) × period (strict <, first column wins ties) and that
// minimal time.
func (mp *MultiPolicy) flightOracle(cols [][]raceStep) *oracleRef {
	n := len(cols[0])
	o := &oracleRef{cfg: make([]int, n), ns: make([]float64, n)}
	for iv := range n {
		best := 0
		bestNS := float64(cols[0][iv].cycles) * mp.cycs[0]
		for i := 1; i < len(cols); i++ {
			if t := float64(cols[i][iv].cycles) * mp.cycs[i]; t < bestNS {
				best, bestNS = i, t
			}
		}
		o.cfg[iv] = best
		o.ns[iv] = bestNS
	}
	return o
}

// flightMeta stamps the engine's shared run identity.
func (mp *MultiPolicy) flightMeta(policy, kind string) flight.RunMeta {
	return flight.RunMeta{
		App:     mp.b.Name,
		Seed:    mp.seed,
		Sizes:   append([]int(nil), mp.sizes...),
		N:       mp.n,
		Penalty: mp.penalty,
		Policy:  policy,
		Kind:    kind,
	}
}

// flightEnd summarizes a completed column of res over intervals.
func flightEnd(intervals int64, res RunResult, regretNS float64) flight.RunEnd {
	return flight.RunEnd{
		Intervals:   intervals,
		Instrs:      res.Instrs,
		TimeNS:      res.TimeNS,
		TPI:         res.TPI,
		Switches:    res.Switches,
		CumRegretNS: regretNS,
	}
}

// publishTraceRuns emits the replay columns of Traces: one trace run per
// fixed column, replayed from its own configuration so it never switches,
// plus the synthesized oracle column.
func (mp *MultiPolicy) publishTraceRuns(ctx context.Context, cols [][]raceStep) error {
	oracle := mp.flightOracle(cols)
	for i, col := range cols {
		if _, err := mp.replayRace(ctx, col, i, "trace:"+mp.sources[i].Label, flight.KindTrace, oracle); err != nil {
			return err
		}
	}
	mp.oracleColumn(ctx, cols, oracle, true)
	return nil
}

// oracleColumn assembles the synthesized oracle run from the fixed columns:
// every interval advances by the oracle's minimal time on the oracle's
// config, switches are free of charge (the oracle bounds achievable time, it
// does not model a realizable controller), and regret is zero by
// construction. Events are built and published under kind "oracle" only
// when rec; the accumulators always are, in the same float operation order
// either way.
func (mp *MultiPolicy) oracleColumn(ctx context.Context, cols [][]raceStep, oracle *oracleRef, rec bool) RunResult {
	var (
		evs      []flight.Event
		instrs   int64
		switches int64
		timeNS   float64
	)
	if rec {
		evs = make([]flight.Event, len(oracle.cfg))
	}
	for iv, c := range oracle.cfg {
		s := cols[c][iv]
		adv := oracle.ns[iv]
		timeNS += adv
		instrs += s.issued
		switched := iv > 0 && c != oracle.cfg[iv-1]
		if switched {
			switches++
		}
		if rec {
			evs[iv] = flight.Event{
				Interval:  int64(iv),
				Config:    c,
				Size:      mp.sizes[c],
				Cycles:    s.cycles,
				Issued:    s.issued,
				PeriodNS:  mp.cycs[c],
				AdvNS:     adv,
				CumTimeNS: timeNS,
				TPI:       adv / float64(s.issued),
				OracleCfg: c,
				OracleNS:  adv,
				Switched:  switched,
			}
		}
	}
	res := RunResult{Policy: "oracle", Instrs: instrs, TimeNS: timeNS, Switches: switches}
	if instrs != 0 {
		res.TPI = timeNS / float64(instrs)
	}
	if rec {
		flight.Publish(ctx, mp.flightMeta("oracle", flight.KindOracle), evs, flightEnd(int64(len(evs)), res, 0))
	}
	return res
}

// RunOracle synthesizes the per-interval oracle as a first-class run: the
// TIME-domain minimum over the fixed columns at every interval, charged no
// reconfiguration costs. It is the zero line every regret column is measured
// against; the zoo experiment races it alongside the real contenders so the
// league table carries its own reference. When the recorder is active the
// column is published under kind "oracle" with cumulative regret exactly 0.
func (mp *MultiPolicy) RunOracle(ctx context.Context, intervals int64) (RunResult, error) {
	cols, err := mp.fixedColumns(ctx, intervals)
	if err != nil {
		return RunResult{}, err
	}
	return mp.oracleColumn(ctx, cols, mp.flightOracle(cols), flight.Active(ctx)), nil
}

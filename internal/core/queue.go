package core

import (
	"context"
	"fmt"

	"capsim/internal/ooo"
	"capsim/internal/palacharla"
	"capsim/internal/tech"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// PaperQueueSizes are the instruction-queue configurations evaluated in the
// paper: 16 to 128 entries in 16-entry increments (the tag-line buffering
// granularity).
func PaperQueueSizes() []int { return []int{16, 32, 48, 64, 80, 96, 112, 128} }

// QueueCycleNS returns the cycle time (ns) the paper's 8-wide issue queue
// imposes at the given entry count under tp: its wakeup+select critical path
// (palacharla.CycleTime).
func QueueCycleNS(entries int, tp tech.Params) float64 {
	return palacharla.CycleTime(palacharla.Queue{Entries: entries, IssueWidth: 8}, tp)
}

// RunResult aggregates a policy-driven run.
type RunResult struct {
	Policy   string
	Instrs   int64
	TimeNS   float64
	TPI      float64
	Switches int64
}

// ProfileQueueTPI runs each configuration for the given instruction budget
// and returns TPI as a dense slice indexed by configuration ID — the
// profiling pass the paper's process-level scheme assumes a CAP compiler or
// runtime performs.
//
// All configurations are evaluated by ONE ooo.MultiCore pass over the shared
// instruction stream: the program-order issue engine makes each core's cost
// proportional to instructions issued, and the MultiCore buffer means the
// stream is decoded once for all window sizes. The TPI arithmetic mirrors
// QueueMachine.RunInterval + TotalTPI operation for operation —
// float64(cycles) * period, then divide by float64(issued) — so the result
// is bit-identical to one private machine per configuration
// (TestProfileQueueTPIOnepass), not merely close.
func ProfileQueueTPI(b workload.Benchmark, seed uint64, sizes []int, instrs int64, f tech.FeatureSize) ([]float64, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("core: no queue sizes")
	}
	tp := tech.ForFeature(f)
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
	stats := mc.RunEach(trace.OpsFor(b, seed).Cursor(), instrs)
	mc.PublishObs()
	out := make([]float64, len(sizes))
	for i, st := range stats {
		cyc := QueueCycleNS(sizes[i], tp)
		out[i] = float64(st.Cycles) * cyc / float64(st.Issued)
	}
	return out, nil
}

// ProfileQueueTraces runs each queue size interval-by-interval over the
// application's stream and returns per-size, per-interval TPI — the raw
// material of the Figure 12/13 snapshots and the per-interval oracle.
//
// The per-size raw interval outcomes are the fixed roster's race-family
// columns (one MultiCore pass over the shared instruction buffer, shared
// with the fixed-policy replays, the oracle and every other trace consumer
// of the same menu), and the per-interval TPI expression replicates
// QueueMachine.RunInterval's float operation order (cycles × period, divided
// by issued), so each trace is bit-identical to a private
// fixed-configuration machine (TestProfileQueueTracesOnepass).
func ProfileQueueTraces(ctx context.Context, b workload.Benchmark, seed uint64, sizes []int, intervals, n int64, f tech.FeatureSize) ([][]float64, error) {
	mp, err := NewMultiPolicy(b, seed, sizes, n, -1, f)
	if err != nil {
		return nil, err
	}
	return mp.Traces(ctx, intervals)
}

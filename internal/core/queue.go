package core

import (
	"context"
	"fmt"

	"capsim/internal/clock"
	"capsim/internal/obs"
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

// QueueMachine is the complexity-adaptive instruction queue CAS bound to an
// out-of-order core, a dynamic clock and a workload: the system evaluated in
// Section 5.3 of the paper. Configuration ID i selects Sizes[i] entries.
type QueueMachine struct {
	sizes   []int
	feature tech.FeatureSize
	configs []Config

	core   *ooo.Core
	clk    *clock.System
	stream workload.InstrSource
	cur    int

	instrs int64
	timeNS float64
}

// NewQueueMachine builds the machine for one application. penaltyCycles < 0
// selects the default clock-switch penalty.
func NewQueueMachine(b workload.Benchmark, seed uint64, sizes []int, initial int, penaltyCycles int, f tech.FeatureSize) (*QueueMachine, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("core: no queue sizes")
	}
	if initial < 0 || initial >= len(sizes) {
		return nil, fmt.Errorf("core: initial config %d outside [0,%d)", initial, len(sizes))
	}
	tp := tech.ForFeature(f)
	configs := make([]Config, len(sizes))
	sources := make([]clock.Source, len(sizes))
	for i, w := range sizes {
		if w < 1 {
			return nil, fmt.Errorf("core: queue size %d invalid", w)
		}
		cyc := palacharla.CycleTime(palacharla.Queue{Entries: w, IssueWidth: 8}, tp)
		configs[i] = Config{ID: i, Label: fmt.Sprintf("IQ=%d", w), CycleNS: cyc}
		sources[i] = clock.Source{ID: i, PeriodNS: cyc, Label: configs[i].Label}
	}
	if err := validateConfigs(configs); err != nil {
		return nil, err
	}
	c, err := ooo.New(ooo.PaperConfig(sizes[initial]))
	if err != nil {
		return nil, err
	}
	clk, err := clock.NewSystem(sources, initial, penaltyCycles)
	if err != nil {
		return nil, err
	}
	return &QueueMachine{
		sizes:   sizes,
		feature: f,
		configs: configs,
		core:    c,
		clk:     clk,
		stream:  trace.OpsFor(b, seed).Cursor(),
		cur:     initial,
	}, nil
}

// Name implements AdaptiveStructure.
func (q *QueueMachine) Name() string { return "int-queue" }

// Configs implements AdaptiveStructure.
func (q *QueueMachine) Configs() []Config {
	out := make([]Config, len(q.configs))
	copy(out, q.configs)
	return out
}

// Current implements AdaptiveStructure.
func (q *QueueMachine) Current() Config { return q.configs[q.cur] }

// SetConfig implements AdaptiveStructure: when shrinking, entries in the
// portion of the queue to be disabled must first issue (the drain stalls are
// charged at the old clock), then the clock switches to the new
// configuration's source.
func (q *QueueMachine) SetConfig(id int) (int64, error) {
	if id < 0 || id >= len(q.configs) {
		return 0, fmt.Errorf("core: unknown queue config %d", id)
	}
	if id == q.cur {
		return 0, nil
	}
	before := q.core.Stats().DrainStalls
	if err := q.core.Resize(q.sizes[id]); err != nil {
		return 0, err
	}
	drain := q.core.Stats().DrainStalls - before
	q.timeNS += q.clk.Advance(drain)
	pen, err := q.clk.Select(id)
	if err != nil {
		return drain, err
	}
	q.timeNS += pen
	q.cur = id
	return drain + int64(q.clk.PenaltyCycles()), nil
}

// RunInterval issues n instructions under the current configuration and
// returns the interval's sample.
func (q *QueueMachine) RunInterval(n int64) Sample {
	st := q.core.Run(q.stream, n)
	dt := q.clk.Advance(st.Cycles)
	q.instrs += st.Issued
	q.timeNS += dt
	return Sample{
		Config: q.cur,
		TPI:    dt / float64(st.Issued),
		IPC:    st.IPC(),
	}
}

// TotalTPI returns the cumulative time per instruction so far, including all
// reconfiguration overheads.
func (q *QueueMachine) TotalTPI() float64 {
	if q.instrs == 0 {
		return 0
	}
	return q.timeNS / float64(q.instrs)
}

// Instrs returns the instructions issued so far.
func (q *QueueMachine) Instrs() int64 { return q.instrs }

// TimeNS returns the accumulated execution time.
func (q *QueueMachine) TimeNS() float64 { return q.timeNS }

// Clock exposes the dynamic clock for reporting.
func (q *QueueMachine) Clock() *clock.System { return q.clk }

// RunResult aggregates a policy-driven run.
type RunResult struct {
	Policy   string
	Instrs   int64
	TimeNS   float64
	TPI      float64
	Switches int64
	// Samples holds per-interval records when requested.
	Samples []Sample
}

// RunQueue drives the machine for `intervals` intervals of `n` instructions
// under the policy, reconfiguring between intervals as the policy directs.
// keepSamples retains per-interval records (Figure 12/13 and the Section 6
// analyses need them; aggregate runs should not pay the memory).
func RunQueue(q *QueueMachine, p Policy, intervals, n int64, keepSamples bool) RunResult {
	samples := drive(q, p, intervals, n, keepSamples)
	q.core.PublishObs()
	return RunResult{
		Policy:   p.Name(),
		Instrs:   q.Instrs(),
		TimeNS:   q.TimeNS(),
		TPI:      q.TotalTPI(),
		Switches: q.clk.Switches(),
		Samples:  samples,
	}
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
	as := obs.StartAsync("profile", "queue:"+b.Name)
	defer as.End(obs.Arg{K: "configs", V: len(sizes)})
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
		cyc := palacharla.CycleTime(palacharla.Queue{Entries: sizes[i], IssueWidth: 8}, tp)
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
	as := obs.StartAsync("profile", "queue-trace:"+b.Name)
	defer as.End(obs.Arg{K: "configs", V: len(sizes)}, obs.Arg{K: "intervals", V: intervals})
	mp, err := NewMultiPolicy(b, seed, sizes, n, -1, f)
	if err != nil {
		return nil, err
	}
	return mp.Traces(ctx, intervals)
}

package core

import (
	"fmt"

	"capsim/internal/clock"
	"capsim/internal/ooo"
	"capsim/internal/tech"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// QueueMachine is the complexity-adaptive instruction queue bound to an
// out-of-order core, a dynamic clock and a workload: the system evaluated in
// Section 5.3 of the paper, stepped one interval at a time. Configuration ID
// i selects Sizes[i] entries.
//
// Production evaluates queues only through the one-pass engines
// (ProfileQueueTPI, ProfileQueueTraces, RunPolicyStudy); QueueMachine is the
// straightforward per-configuration simulation they are checked against
// (onepass_test.go, multipolicy_test.go, racefamily_test.go).
type QueueMachine struct {
	sizes   []int
	configs []Config

	core    *ooo.Core
	clk     *clock.System
	penalty int64 // switch penalty in cycles, the default resolved
	stream  workload.InstrSource
	cur     int

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
		cyc := QueueCycleNS(w, tp)
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
		configs: configs,
		core:    c,
		clk:     clk,
		penalty: switchPenalty(penaltyCycles),
		stream:  trace.OpsFor(b, seed).Cursor(),
		cur:     initial,
	}, nil
}

// Name identifies the structure.
func (q *QueueMachine) Name() string { return "int-queue" }

// Configs enumerates the configurations, ordered by increasing size.
func (q *QueueMachine) Configs() []Config {
	out := make([]Config, len(q.configs))
	copy(out, q.configs)
	return out
}

// Current returns the active configuration.
func (q *QueueMachine) Current() Config { return q.configs[q.cur] }

// SetConfig reconfigures the queue and returns the stall cycles it cost:
// when shrinking, entries in the portion of the queue to be disabled must
// first issue (the drain stalls are charged at the old clock), then the
// clock switches to the new configuration's source.
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
	return drain + q.penalty, nil
}

// RunInterval issues n instructions under the current configuration and
// returns the interval's sample.
func (q *QueueMachine) RunInterval(n int64) Sample {
	st := q.core.Run(q.stream, n)
	dt := q.clk.Advance(st.Cycles)
	q.instrs += st.Issued
	q.timeNS += dt
	return Sample{Config: q.cur, TPI: dt / float64(st.Issued)}
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

// Clock exposes the dynamic clock.
func (q *QueueMachine) Clock() *clock.System { return q.clk }

// switchPenalty resolves an oracle's penaltyCycles argument as
// clock.NewSystem does: negative selects the default.
func switchPenalty(penaltyCycles int) int64 {
	if penaltyCycles < 0 {
		return clock.DefaultSwitchPenaltyCycles
	}
	return int64(penaltyCycles)
}

// RunQueue drives the machine for `intervals` intervals of `n` instructions
// under the policy, reconfiguring between intervals as the policy directs,
// and returns the aggregate with the per-interval samples.
func RunQueue(q *QueueMachine, p Policy, intervals, n int64) (RunResult, []Sample) {
	samples := drive(q, p, intervals, n)
	return RunResult{
		Policy:   p.Name(),
		Instrs:   q.Instrs(),
		TimeNS:   q.TimeNS(),
		TPI:      q.TotalTPI(),
		Switches: q.clk.Switches(),
	}, samples
}

// Config is one selectable configuration of a machine oracle's adaptive
// structure.
type Config struct {
	// ID indexes the configuration within its structure.
	ID int
	// Label is human-readable ("L1=16KB 4-way", "IQ=64").
	Label string
	// CycleNS is the processor cycle time this configuration imposes
	// (worst-case timing analysis of the structure at this size).
	CycleNS float64
}

// validateConfigs checks a configuration table: positive cycle times and
// unique IDs.
func validateConfigs(configs []Config) error {
	if len(configs) == 0 {
		return fmt.Errorf("core: empty configuration table")
	}
	seen := make(map[int]bool, len(configs))
	for _, c := range configs {
		if c.CycleNS <= 0 {
			return fmt.Errorf("core: config %d (%s) has cycle %v", c.ID, c.Label, c.CycleNS)
		}
		if seen[c.ID] {
			return fmt.Errorf("core: duplicate config id %d", c.ID)
		}
		seen[c.ID] = true
	}
	return nil
}

// intervalMachine is an adaptive structure drive can step.
type intervalMachine interface {
	// Current returns the active configuration.
	Current() Config
	// SetConfig reconfigures the structure, performing any cleanup the
	// transition requires, and returns the stall cycles it cost.
	SetConfig(id int) (stallCycles int64, err error)
	// RunInterval runs n units of work under the current configuration
	// and returns the interval's sample.
	RunInterval(n int64) Sample
}

// drive is the interval loop behind RunQueue and RunCache: before each of
// `intervals` intervals of n units it asks the policy for the next
// configuration, reconfigures the machine (a no-op when the configuration
// is unchanged), runs the interval and records its sample in the policy's
// monitor. It returns every interval's sample.
func drive(m intervalMachine, p Policy, intervals, n int64) []Sample {
	mon := &Monitor{Current: m.Current().ID}
	samples := make([]Sample, 0, intervals)
	for i := int64(0); i < intervals; i++ {
		if _, err := m.SetConfig(p.Next(mon)); err != nil {
			panic(err)
		}
		s := m.RunInterval(n)
		mon.Record(s)
		samples = append(samples, s)
	}
	return samples
}

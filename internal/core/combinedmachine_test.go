package core

import (
	"fmt"

	"capsim/internal/cache"
	"capsim/internal/clock"
	"capsim/internal/ooo"
	"capsim/internal/tech"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// CombinedMachine is the full Complexity-Adaptive Processor of the paper's
// Figure 5: multiple complexity-adaptive structures — here the instruction
// queue AND the Dcache hierarchy — coexisting under one Configuration
// Manager and one dynamic clock. The processor clock is the worst case of
// the enabled configurations ("the various clock speeds are predetermined
// based on worst-case timing analysis of each FS and combination of CAS
// configurations"), which couples the two structures: a large L1 slows the
// queue's effective clock and vice versa, creating the cross-structure
// interactions the paper warns make next-configuration prediction complex.
//
// Unlike the two single-structure machines (which reproduce the paper's
// controlled experiments with their idealizing assumptions), the combined
// machine closes the loop between them: loads issue through the out-of-order
// window with latencies drawn from the live cache hierarchy instead of a
// perfect cache.
//
// Production evaluates this machine only through the one-pass MultiCombined
// kernel; CombinedMachine is the straightforward per-configuration
// simulation it is checked against (TestProfileCombinedOnepass).
type CombinedMachine struct {
	sizes   []int // queue sizes
	maxL1   int   // cache boundaries 1..maxL1
	feature tech.FeatureSize
	configs []Config // flattened: ID = boundaryIdx*len(sizes) + queueIdx

	core    *ooo.Core
	hier    *cache.Hierarchy
	timings []cache.Timing
	clk     *clock.System
	penalty int64 // switch penalty in cycles, the default resolved
	istream workload.InstrSource
	refs    workload.RefSource
	rpi     float64
	cur     int

	instrs int64
	timeNS float64
}

// NewCombinedMachine builds the joint CAP for an application (which must
// have a memory profile). The configuration space is the cross product of
// the queue sizes and the cache boundaries 1..maxBoundary.
func NewCombinedMachine(b workload.Benchmark, seed uint64, sizes []int, p cache.Params, maxBoundary int, initial CombinedConfig, penaltyCycles int, f tech.FeatureSize) (*CombinedMachine, error) {
	if b.Mem == nil {
		return nil, fmt.Errorf("core: %s has no memory profile", b.Name)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("core: no queue sizes")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lo, hi := p.Boundaries()
	if maxBoundary < lo || maxBoundary > hi {
		return nil, fmt.Errorf("core: max boundary %d outside [%d,%d]", maxBoundary, lo, hi)
	}
	tp := tech.ForFeature(f)
	m := &CombinedMachine{
		sizes:   sizes,
		maxL1:   maxBoundary,
		feature: f,
		timings: make([]cache.Timing, maxBoundary+1),
		rpi:     b.Mem.RefsPerInstr,
	}
	var sources []clock.Source
	for k := 1; k <= maxBoundary; k++ {
		m.timings[k] = cache.TimingFor(p, k)
		for qi, w := range sizes {
			if w < 1 {
				return nil, fmt.Errorf("core: queue size %d invalid", w)
			}
			qCyc := QueueCycleNS(w, tp)
			cyc := qCyc
			if m.timings[k].CycleNS > cyc {
				cyc = m.timings[k].CycleNS // worst case of the enabled CASes
			}
			id := (k-1)*len(sizes) + qi
			c := Config{ID: id, Label: fmt.Sprintf("IQ=%d/L1=%dKB", w, p.L1Bytes(k)/1024), CycleNS: cyc}
			m.configs = append(m.configs, c)
			sources = append(sources, clock.Source{ID: id, PeriodNS: cyc, Label: c.Label})
		}
	}
	if err := validateConfigs(m.configs); err != nil {
		return nil, err
	}
	initID, err := m.configID(initial)
	if err != nil {
		return nil, err
	}
	if m.core, err = ooo.New(ooo.PaperConfig(initial.QueueEntries)); err != nil {
		return nil, err
	}
	if m.hier, err = cache.New(p, initial.Boundary); err != nil {
		return nil, err
	}
	if m.clk, err = clock.NewSystem(sources, initID, penaltyCycles); err != nil {
		return nil, err
	}
	m.penalty = switchPenalty(penaltyCycles)
	m.istream = trace.OpsFor(b, seed).Cursor()
	m.refs = trace.RefsFor(b, seed).Cursor()
	m.cur = initID
	return m, nil
}

// configID maps a joint configuration to its flattened ID.
func (m *CombinedMachine) configID(c CombinedConfig) (int, error) {
	if c.Boundary < 1 || c.Boundary > m.maxL1 {
		return 0, fmt.Errorf("core: boundary %d outside [1,%d]", c.Boundary, m.maxL1)
	}
	for qi, w := range m.sizes {
		if w == c.QueueEntries {
			return (c.Boundary-1)*len(m.sizes) + qi, nil
		}
	}
	return 0, fmt.Errorf("core: queue size %d not in table %v", c.QueueEntries, m.sizes)
}

// Decode maps a flattened configuration ID back to its joint configuration.
func (m *CombinedMachine) Decode(id int) (CombinedConfig, error) {
	if id < 0 || id >= len(m.configs) {
		return CombinedConfig{}, fmt.Errorf("core: unknown combined config %d", id)
	}
	return CombinedConfig{
		QueueEntries: m.sizes[id%len(m.sizes)],
		Boundary:     id/len(m.sizes) + 1,
	}, nil
}

// Name identifies the structure.
func (m *CombinedMachine) Name() string { return "cap-processor" }

// Configs enumerates the joint configurations by flattened ID.
func (m *CombinedMachine) Configs() []Config {
	out := make([]Config, len(m.configs))
	copy(out, m.configs)
	return out
}

// Current returns the active configuration.
func (m *CombinedMachine) Current() Config { return m.configs[m.cur] }

// SetConfig reconfigures the processor: the queue drains if shrinking, the
// cache boundary relabels, and the clock switches to the joint worst case.
func (m *CombinedMachine) SetConfig(id int) (int64, error) {
	cc, err := m.Decode(id)
	if err != nil {
		return 0, err
	}
	if id == m.cur {
		return 0, nil
	}
	before := m.core.Stats().DrainStalls
	if err := m.core.Resize(cc.QueueEntries); err != nil {
		return 0, err
	}
	drain := m.core.Stats().DrainStalls - before
	m.timeNS += m.clk.Advance(drain)
	if err := m.hier.SetBoundary(cc.Boundary); err != nil {
		return 0, err
	}
	pen, err := m.clk.Select(id)
	if err != nil {
		return drain, err
	}
	m.timeNS += pen
	m.cur = id
	return drain + m.penalty, nil
}

// RunInterval issues n instructions with loads served by the live cache
// hierarchy, and returns the interval's sample. Memory references are
// attached to instructions at the profile's refs-per-instruction rate; a
// load's latency is the hierarchy's outcome at the current boundary
// (pipelined L1 hits cost nothing extra; L2 hits and structure misses add
// their stall cycles to the consumer-visible latency, a blocking-cache
// approximation consistent with the paper's cache methodology).
//
// The core's fractional-load accumulator deliberately carries over between
// successive RunInterval calls (see ooo.Core.RunWithLoads): the deterministic
// refs-per-instruction spacing continues across interval boundaries instead
// of restarting, so an interval-driven run consumes exactly the same
// reference sequence — and touches the hierarchy exactly the same number of
// times — as one unbroken run. TestCombinedLoadCarryOver pins this.
func (m *CombinedMachine) RunInterval(n int64) Sample {
	t := m.timings[m.cur/len(m.sizes)+1]
	st := m.core.RunWithLoads(m.istream, n, m.rpi, func(write bool) int64 {
		r := m.refs.Next()
		switch m.hier.Access(r.Addr, r.Write || write) {
		case cache.L1Hit:
			return 0
		case cache.L2Hit:
			return int64(t.L2HitCycles)
		default:
			return int64(t.L2HitCycles + t.MemCycles)
		}
	})
	dt := m.clk.Advance(st.Cycles)
	m.instrs += st.Issued
	m.timeNS += dt
	return Sample{Config: m.cur, TPI: dt / float64(st.Issued)}
}

// TotalTPI returns cumulative ns per instruction including overheads.
func (m *CombinedMachine) TotalTPI() float64 {
	if m.instrs == 0 {
		return 0
	}
	return m.timeNS / float64(m.instrs)
}

// Instrs returns instructions issued so far.
func (m *CombinedMachine) Instrs() int64 { return m.instrs }

// Clock exposes the dynamic clock.
func (m *CombinedMachine) Clock() *clock.System { return m.clk }

// Hierarchy exposes the cache (for invariant checks).
func (m *CombinedMachine) Hierarchy() *cache.Hierarchy { return m.hier }

package core

import (
	"fmt"

	"capsim/internal/cache"
	"capsim/internal/clock"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// CacheMachine is the complexity-adaptive two-level Dcache hierarchy bound
// to a trace, the blocking-cache performance model and a dynamic clock: the
// system evaluated in Section 5.2 of the paper, stepped one interval at a
// time. Configuration ID k (1-based) places the movable L1/L2 boundary after
// k increments.
//
// Production evaluates the hierarchy only through the one-pass
// ProfileCacheTPI; CacheMachine is the straightforward per-boundary
// simulation it is checked against (TestProfileCacheTPIOnepass).
type CacheMachine struct {
	maxL1   int // largest boundary exposed (the paper explores L1 <= 64 KB)
	configs []Config
	timings []cache.Timing

	hier    *cache.Hierarchy
	clk     *clock.System
	penalty int64 // switch penalty in cycles, the default resolved
	refs    workload.RefSource
	rpi     float64 // references per instruction
	cur     int

	instrs float64
	timeNS float64
	missNS float64
}

// NewCacheMachine builds the machine for one application (which must have a
// memory profile). penaltyCycles < 0 selects the default clock-switch
// penalty.
func NewCacheMachine(b workload.Benchmark, seed uint64, p cache.Params, maxBoundary, initial, penaltyCycles int) (*CacheMachine, error) {
	if b.Mem == nil {
		return nil, fmt.Errorf("core: %s has no memory profile", b.Name)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lo, hi := p.Boundaries()
	if maxBoundary < lo || maxBoundary > hi {
		return nil, fmt.Errorf("core: max boundary %d outside [%d,%d]", maxBoundary, lo, hi)
	}
	if initial < 1 || initial > maxBoundary {
		return nil, fmt.Errorf("core: initial boundary %d outside [1,%d]", initial, maxBoundary)
	}
	configs := make([]Config, 0, maxBoundary)
	timings := make([]cache.Timing, maxBoundary+1)
	sources := make([]clock.Source, 0, maxBoundary)
	for k := 1; k <= maxBoundary; k++ {
		t := cache.TimingFor(p, k)
		timings[k] = t
		label := fmt.Sprintf("L1=%dKB %d-way", p.L1Bytes(k)/1024, p.L1Assoc(k))
		configs = append(configs, Config{ID: k, Label: label, CycleNS: t.CycleNS})
		sources = append(sources, clock.Source{ID: k, PeriodNS: t.CycleNS, Label: label})
	}
	if err := validateConfigs(configs); err != nil {
		return nil, err
	}
	h, err := cache.New(p, initial)
	if err != nil {
		return nil, err
	}
	clk, err := clock.NewSystem(sources, initial, penaltyCycles)
	if err != nil {
		return nil, err
	}
	return &CacheMachine{
		maxL1:   maxBoundary,
		configs: configs,
		timings: timings,
		hier:    h,
		clk:     clk,
		penalty: switchPenalty(penaltyCycles),
		refs:    trace.RefsFor(b, seed).Cursor(),
		rpi:     b.Mem.RefsPerInstr,
		cur:     initial,
	}, nil
}

// Name identifies the structure.
func (c *CacheMachine) Name() string { return "dcache-hierarchy" }

// Configs enumerates the boundary configurations, ordered by increasing L1.
func (c *CacheMachine) Configs() []Config {
	out := make([]Config, len(c.configs))
	copy(out, c.configs)
	return out
}

// Current returns the active configuration.
func (c *CacheMachine) Current() Config { return c.configs[c.cur-1] }

// SetConfig moves the L1/L2 boundary and returns the stall cycles it cost.
// The move needs no flush or data movement (exclusive caching + constant
// index mapping), so the only cost is the clock switch.
func (c *CacheMachine) SetConfig(k int) (int64, error) {
	if k < 1 || k > c.maxL1 {
		return 0, fmt.Errorf("core: unknown cache config %d", k)
	}
	if k == c.cur {
		return 0, nil
	}
	if err := c.hier.SetBoundary(k); err != nil {
		return 0, err
	}
	pen, err := c.clk.Select(k)
	if err != nil {
		return 0, err
	}
	c.timeNS += pen
	c.cur = k
	return c.penalty, nil
}

// RunInterval plays n references through the hierarchy under the current
// configuration and returns the interval's sample (TPI measured over the
// instructions those references represent). ProfileCacheTPI replicates its
// float expressions term for term.
func (c *CacheMachine) RunInterval(n int64) Sample {
	t := c.timings[c.cur]
	before := c.hier.Stats()
	for i := int64(0); i < n; i++ {
		r := c.refs.Next()
		c.hier.Access(r.Addr, r.Write)
	}
	after := c.hier.Stats()
	l1m := after.L1Misses - before.L1Misses
	l2m := after.L2Misses - before.L2Misses
	instrs := float64(n) / c.rpi
	stall := float64(l1m-l2m)*float64(t.L2HitCycles) + float64(l2m)*float64(t.L2HitCycles+t.MemCycles)
	cycles := instrs*baseCPI + stall
	dt := cycles * t.CycleNS
	c.instrs += instrs
	c.timeNS += dt
	c.missNS += stall * t.CycleNS
	return Sample{
		Config: c.cur,
		TPI:    dt / instrs,
		IPC:    instrs / cycles,
	}
}

// TotalTPI returns cumulative ns per instruction including reconfiguration
// overheads.
func (c *CacheMachine) TotalTPI() float64 {
	if c.instrs == 0 {
		return 0
	}
	return c.timeNS / c.instrs
}

// TotalTPIMiss returns cumulative Dcache-miss-stall ns per instruction (the
// paper's TPImiss metric).
func (c *CacheMachine) TotalTPIMiss() float64 {
	if c.instrs == 0 {
		return 0
	}
	return c.missNS / c.instrs
}

// Stats exposes the hierarchy's raw counters.
func (c *CacheMachine) Stats() cache.Stats { return c.hier.Stats() }

// Hierarchy exposes the underlying cache (invariant checks).
func (c *CacheMachine) Hierarchy() *cache.Hierarchy { return c.hier }

// Clock exposes the dynamic clock.
func (c *CacheMachine) Clock() *clock.System { return c.clk }

// Timing returns the timing of boundary k.
func (c *CacheMachine) Timing(k int) cache.Timing { return c.timings[k] }

// CacheRunResult aggregates a policy-driven cache run.
type CacheRunResult struct {
	Policy   string
	Refs     int64
	TPI      float64
	TPIMiss  float64
	Switches int64
}

// RunCache drives the machine for `intervals` intervals of `n` references
// under the policy and returns the aggregate with the per-interval samples.
func RunCache(c *CacheMachine, p Policy, intervals, n int64) (CacheRunResult, []Sample) {
	samples := drive(c, p, intervals, n)
	return CacheRunResult{
		Policy:   p.Name(),
		Refs:     int64(c.hier.Stats().Refs),
		TPI:      c.TotalTPI(),
		TPIMiss:  c.TotalTPIMiss(),
		Switches: c.clk.Switches(),
	}, samples
}

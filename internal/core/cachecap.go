package core

import (
	"fmt"
	"math"

	"capsim/internal/cache"
	"capsim/internal/clock"
	"capsim/internal/obs"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// CacheMachine is the complexity-adaptive two-level Dcache hierarchy CAS
// bound to a trace, the blocking-cache performance model and a dynamic
// clock: the system evaluated in Section 5.2 of the paper. Configuration ID
// k (1-based) places the movable L1/L2 boundary after k increments.
type CacheMachine struct {
	params  cache.Params
	maxL1   int // largest boundary exposed (the paper explores L1 <= 64 KB)
	configs []Config
	timings []cache.Timing

	hier *cache.Hierarchy
	clk  *clock.System
	refs workload.RefSource
	rpi  float64 // references per instruction
	cur  int

	instrs float64
	timeNS float64
	missNS float64
}

// PaperMaxBoundary limits the explored L1 sizes to 8-64 KB (8 increments of
// 8 KB), the range the paper investigates.
const PaperMaxBoundary = 8

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
		params:  p,
		maxL1:   maxBoundary,
		configs: configs,
		timings: timings,
		hier:    h,
		clk:     clk,
		refs:    trace.RefsFor(b, seed).Cursor(),
		rpi:     b.Mem.RefsPerInstr,
		cur:     initial,
	}, nil
}

// Name implements AdaptiveStructure.
func (c *CacheMachine) Name() string { return "dcache-hierarchy" }

// Configs implements AdaptiveStructure.
func (c *CacheMachine) Configs() []Config {
	out := make([]Config, len(c.configs))
	copy(out, c.configs)
	return out
}

// Current implements AdaptiveStructure.
func (c *CacheMachine) Current() Config { return c.configs[c.cur-1] }

// SetConfig implements AdaptiveStructure: moving the L1/L2 boundary needs no
// flush or data movement (exclusive caching + constant index mapping), so
// the only cost is the clock switch.
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
	return int64(c.clk.PenaltyCycles()), nil
}

// baseCPI matches the paper's 4-way issue pipeline at 2.67 IPC in the
// absence of L1 Dcache misses.
const baseCPI = 1.0 / 2.67

// RunInterval plays n references through the hierarchy under the current
// configuration and returns the interval's sample (TPI measured over the
// instructions those references represent).
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

// Hierarchy exposes the underlying cache (invariant checks in tests).
func (c *CacheMachine) Hierarchy() *cache.Hierarchy { return c.hier }

// Clock exposes the dynamic clock for reporting.
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
	Samples  []Sample
}

// RunCache drives the machine for `intervals` intervals of `n` references
// under the policy. The paper's process-level scheme only reconfigures on
// context switches; interval-level policies are the Section 6 extension.
func RunCache(c *CacheMachine, p Policy, intervals, n int64, keepSamples bool) CacheRunResult {
	samples := drive(c, p, intervals, n, keepSamples)
	return CacheRunResult{
		Policy:   p.Name(),
		Refs:     int64(c.hier.Stats().Refs),
		TPI:      c.TotalTPI(),
		TPIMiss:  c.TotalTPIMiss(),
		Switches: c.clk.Switches(),
		Samples:  samples,
	}
}

// ProfileCacheTPI profiles every boundary for one application — the
// process-level profiling pass. Results are dense slices of length
// maxBoundary+1 indexed by boundary k (slot 0 is +Inf so SelectBestIndex can
// never choose it).
//
// The whole boundary family is evaluated in ONE replay of the shared
// reference stream, decoded in place: every boundary position advances in
// lockstep through cache.MultiHierarchy, so each reference is generated and
// decoded exactly once instead of once per boundary. The same closed-form
// timing model as CacheMachine.RunInterval then converts per-boundary miss
// counts into (TPI, TPImiss); the float expressions replicate RunInterval
// term for term, in the same order, so results are bit-identical to one
// independent CacheMachine per boundary (TestProfileCacheTPIOnepass).
func ProfileCacheTPI(b workload.Benchmark, seed uint64, p cache.Params, maxBoundary int, warm, refs int64) (tpi, tpiMiss []float64, err error) {
	// The async span makes each per-application profile cell its own
	// timeline row, whatever worker goroutine it runs on.
	as := obs.StartAsync("profile", "cache:"+b.Name)
	defer as.End(obs.Arg{K: "boundaries", V: maxBoundary})
	if b.Mem == nil {
		return nil, nil, fmt.Errorf("core: %s has no memory profile", b.Name)
	}
	mh, err := cache.NewMulti(p, maxBoundary)
	if err != nil {
		return nil, nil, err
	}
	store := trace.RefsFor(b, seed)
	dec := trace.DecodedFor(store, trace.Geometry{BlockBytes: p.BlockBytes, Sets: p.Sets()})
	cur := dec.Cursor()
	if warm > 0 {
		mh.Replay(cur, warm)
	}
	base := mh.Stats()
	mh.Replay(cur, refs)
	after := mh.Stats()
	mh.PublishObs()

	instrs := float64(refs) / b.Mem.RefsPerInstr
	tpi = make([]float64, maxBoundary+1)
	tpiMiss = make([]float64, maxBoundary+1)
	tpi[0], tpiMiss[0] = math.Inf(1), math.Inf(1)
	for k := 1; k <= maxBoundary; k++ {
		t := cache.TimingFor(p, k)
		l1m := after[k].L1Misses - base[k].L1Misses
		l2m := after[k].L2Misses - base[k].L2Misses
		stall := float64(l1m-l2m)*float64(t.L2HitCycles) + float64(l2m)*float64(t.L2HitCycles+t.MemCycles)
		cycles := instrs*baseCPI + stall
		dt := cycles * t.CycleNS
		tpi[k] = dt / instrs
		tpiMiss[k] = (stall * t.CycleNS) / instrs
	}
	return tpi, tpiMiss, nil
}

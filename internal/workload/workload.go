// Package workload provides the synthetic application models that stand in
// for the paper's benchmark suite (SPEC95, the CMU task-parallel suite's
// airshed/stereo/radar, and the NAS appcg kernel).
//
// The paper drives its cache experiment with Atom-captured address traces
// and its instruction-queue experiment with SimpleScalar runs of real
// binaries; neither the binaries, their inputs, nor an Alpha tracing
// environment is available here, so each application is replaced by a
// *profile*: a compact statistical model of (a) its data-reference locality
// (a mixture of working-set regions with spatial-run and streaming
// behaviour) and (b) its instruction-level parallelism (dependence-distance
// and operation-latency distributions, with phase modulation for the
// applications whose intra-run diversity Section 6 studies). The profiles
// are calibrated so the per-application curves of Figures 7 and 10 have the
// shapes the paper reports; see DESIGN.md for the substitution rationale.
//
// Everything is deterministic: generators draw from capsim/internal/rng
// seeded by (benchmark name, purpose).
package workload

import (
	"fmt"
	"math"
)

// Suite identifies the benchmark suite an application belongs to.
type Suite int

// Benchmark suites used in the paper.
const (
	SPECint95 Suite = iota
	SPECfp95
	CMU
	NAS
	// Synthetic marks the switching-stress streams of the policy zoo,
	// which live outside the paper's 22-application registry.
	Synthetic
)

func (s Suite) String() string {
	switch s {
	case SPECint95:
		return "SPECint95"
	case SPECfp95:
		return "SPECfp95"
	case CMU:
		return "CMU"
	case NAS:
		return "NAS"
	case Synthetic:
		return "synthetic"
	default:
		return fmt.Sprintf("Suite(%d)", int(s))
	}
}

// RegionKind describes the access pattern within a memory region.
type RegionKind int

const (
	// RandomRegion: accesses land on uniformly random blocks of the
	// region, each visited with a short spatial run (Run consecutive
	// words), modelling hashed/indexed structures.
	RandomRegion RegionKind = iota
	// StreamRegion: a sequential walk through the region with the given
	// stride, wrapping at the end — array sweeps much larger than any
	// cache level.
	StreamRegion
	// LoopRegion: like StreamRegion, but the region is modest-sized and
	// re-scanned repeatedly. Under LRU this produces the classic cliff:
	// while the cache is smaller than the loop every block is evicted
	// before its reuse (miss per new block), and once the cache reaches
	// the loop size misses vanish entirely. This is the behaviour behind
	// the paper's stereo and appcg curves, whose TPI stays high until the
	// L1 reaches 48 KB and then drops sharply.
	LoopRegion
)

// Region is one component of an application's data working set.
type Region struct {
	// Name is a short label for diagnostics ("heap", "dict", "grid").
	Name string
	// Kind selects the access pattern.
	Kind RegionKind
	// Bytes is the region size.
	Bytes int64
	// Weight is the fraction of references directed at this region
	// (weights are normalized across regions).
	Weight float64
	// Run is the spatial-run length for RandomRegion: the number of
	// consecutive 4-byte words touched per visit. Longer runs mean more
	// spatial locality (fewer misses per reference). Ignored for streams.
	Run int
	// StrideBytes is the streaming stride for StreamRegion.
	StrideBytes int64
}

// MemProfile models an application's data-reference behaviour.
type MemProfile struct {
	// RefsPerInstr is the fraction of instructions that are loads or
	// stores (the paper notes e.g. that compress's loads and stores are
	// under 10% of its mix).
	RefsPerInstr float64
	// WriteFrac is the fraction of references that are stores.
	WriteFrac float64
	// Regions is the working-set mixture.
	Regions []Region
}

// Validate reports whether the profile is usable. Every float must be
// finite: a NaN fails no ordered comparison, so each check below is written
// to accept only what it names.
func (m MemProfile) Validate() error {
	if !(m.RefsPerInstr > 0 && m.RefsPerInstr <= 1) {
		return fmt.Errorf("workload: refs/instr %v outside (0,1]", m.RefsPerInstr)
	}
	if !(m.WriteFrac >= 0 && m.WriteFrac <= 1) {
		return fmt.Errorf("workload: write fraction %v outside [0,1]", m.WriteFrac)
	}
	if len(m.Regions) == 0 {
		return fmt.Errorf("workload: no regions")
	}
	var total float64
	for i, r := range m.Regions {
		if r.Bytes <= 0 {
			return fmt.Errorf("workload: region %d (%s) has size %d", i, r.Name, r.Bytes)
		}
		if !positiveFinite(r.Weight) {
			return fmt.Errorf("workload: region %d (%s) has weight %v", i, r.Name, r.Weight)
		}
		if (r.Kind == StreamRegion || r.Kind == LoopRegion) && r.StrideBytes <= 0 {
			return fmt.Errorf("workload: stream region %d (%s) has stride %d", i, r.Name, r.StrideBytes)
		}
		if r.Kind == RandomRegion && r.Run <= 0 {
			return fmt.Errorf("workload: random region %d (%s) has run %d", i, r.Name, r.Run)
		}
		total += r.Weight
	}
	if !positiveFinite(total) {
		return fmt.Errorf("workload: region weights sum to %v", total)
	}
	return nil
}

// positiveFinite reports whether x is a positive real number (not NaN, not
// +Inf): the sampling tables' weights and totals must be.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// GeomComponent is one component of a dependence-distance mixture: distances
// are 1 + Geometric with the given mean.
type GeomComponent struct {
	Mean   float64
	Weight float64
}

// LatComponent is one component of the operation-latency mixture. Cycles
// lies in [1, 127], the range of Instr.Latency.
type LatComponent struct {
	Cycles int
	Weight float64
}

// ILPParams describes the instruction stream's parallelism structure within
// one phase.
type ILPParams struct {
	// SrcWeights are the probabilities of an instruction having 0, 1 or 2
	// register sources.
	SrcWeights [3]float64
	// Dists is the dependence-distance mixture (distance from consumer
	// back to producer, in dynamic instructions).
	Dists []GeomComponent
	// Lats is the operation-latency mixture in cycles.
	Lats []LatComponent
}

// Validate reports whether the parameters are usable: weights and means
// are finite, and every latency fits Instr.Latency.
func (p ILPParams) Validate() error {
	var s float64
	for _, w := range p.SrcWeights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("workload: source weight %v not finite and non-negative", w)
		}
		s += w
	}
	if !positiveFinite(s) {
		return fmt.Errorf("workload: source weights sum to %v", s)
	}
	if len(p.Dists) == 0 {
		return fmt.Errorf("workload: no distance components")
	}
	var dw float64
	for i, d := range p.Dists {
		if !(d.Mean >= 1) || math.IsInf(d.Mean, 1) || !positiveFinite(d.Weight) {
			return fmt.Errorf("workload: distance component %d invalid (mean %v weight %v)", i, d.Mean, d.Weight)
		}
		dw += d.Weight
	}
	if len(p.Lats) == 0 {
		return fmt.Errorf("workload: no latency components")
	}
	var lw float64
	for i, l := range p.Lats {
		if l.Cycles < 1 || l.Cycles > math.MaxInt8 || !positiveFinite(l.Weight) {
			return fmt.Errorf("workload: latency component %d invalid (%d cycles weight %v)", i, l.Cycles, l.Weight)
		}
		lw += l.Weight
	}
	if !positiveFinite(dw) || !positiveFinite(lw) {
		return fmt.Errorf("workload: component weights sum to %v (distance), %v (latency)", dw, lw)
	}
	return nil
}

// PhaseKind selects how an application's ILP parameters vary over time —
// the intra-application diversity Section 6 of the paper studies.
type PhaseKind int

const (
	// PhaseStable: one parameter set for the whole run.
	PhaseStable PhaseKind = iota
	// PhaseLongBlocks: alternate Base and Alt in long blocks of
	// PeriodInstrs (turb3d's behaviour in Figure 12: long stretches where
	// one configuration clearly wins).
	PhaseLongBlocks
	// PhaseRegular: alternate Base and Alt with a short regular period
	// (vortex's Figure 13(a): the best configuration flips roughly every
	// 15 intervals of 2000 instructions).
	PhaseRegular
	// PhaseIrregular: switch between Base and Alt at random with
	// geometrically distributed run lengths (vortex's Figure 13(b):
	// frequent, near-random variation with equal long-run means).
	PhaseIrregular
	// PhaseComposite: long super-blocks that alternate between
	// PhaseRegular behaviour and PhaseIrregular behaviour — the full
	// vortex picture (regular stretches and irregular stretches in one
	// run).
	PhaseComposite
)

// ILPProfile models an application's instruction stream.
type ILPProfile struct {
	Base ILPParams
	// Alt is the second parameter set for phased applications; nil for
	// PhaseStable.
	Alt *ILPParams
	// Kind selects the phase schedule.
	Kind PhaseKind
	// PeriodInstrs is the phase block length (PhaseLongBlocks,
	// PhaseRegular) or mean run length (PhaseIrregular), in instructions.
	PeriodInstrs int64
	// SuperPeriodInstrs is the super-block length for PhaseComposite.
	SuperPeriodInstrs int64
}

// Validate reports whether the profile is usable.
func (p ILPProfile) Validate() error {
	if err := p.Base.Validate(); err != nil {
		return err
	}
	if p.Kind != PhaseStable {
		if p.Alt == nil {
			return fmt.Errorf("workload: phase kind %d requires Alt params", p.Kind)
		}
		if err := p.Alt.Validate(); err != nil {
			return err
		}
		if p.PeriodInstrs <= 0 {
			return fmt.Errorf("workload: phase kind %d requires positive period", p.Kind)
		}
		if p.Kind == PhaseComposite && p.SuperPeriodInstrs <= 0 {
			return fmt.Errorf("workload: composite phases require a super period")
		}
	}
	return nil
}

// Benchmark is one application model.
type Benchmark struct {
	Name  string
	Suite Suite
	// FloatingPoint distinguishes the paper's integer and floating-point
	// figure panels ((a) vs (b) in Figures 7 and 10).
	FloatingPoint bool
	// Mem is the data-reference model; nil only for go, which the paper
	// could not instrument with Atom and therefore appears only in the
	// instruction-queue experiment.
	Mem *MemProfile
	// ILP is the instruction-stream model.
	ILP ILPProfile
}

// Validate reports whether the benchmark definition is consistent.
func (b Benchmark) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("workload: benchmark with empty name")
	}
	if b.Mem != nil {
		if err := b.Mem.Validate(); err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
	}
	if err := b.ILP.Validate(); err != nil {
		return fmt.Errorf("%s: %w", b.Name, err)
	}
	return nil
}

// All returns every benchmark in the paper's order (integer, then floating
// point within each figure panel: SPECint, CMU+NAS+SPECfp).
func All() []Benchmark {
	out := make([]Benchmark, len(registry))
	copy(out, registry)
	return out
}

// CacheApps returns the 21 applications of the cache experiment (everything
// except go, which the paper could not instrument).
func CacheApps() []Benchmark {
	var out []Benchmark
	for _, b := range registry {
		if b.Mem != nil {
			out = append(out, b)
		}
	}
	return out
}

// QueueApps returns the 22 applications of the instruction-queue experiment.
func QueueApps() []Benchmark { return All() }

// ZooApps returns the synthetic switching-stress streams of the policy
// zoo. They are deliberately NOT part of All()/QueueApps(): the paper's
// figures iterate the 22-application registry, and the zoo profiles exist
// only to stress adaptation policies (the zoo experiment).
func ZooApps() []Benchmark {
	out := make([]Benchmark, len(zooRegistry))
	copy(out, zooRegistry)
	return out
}

// ByName returns the named benchmark, searching the paper registry first
// and then the policy-zoo registry.
func ByName(name string) (Benchmark, error) {
	for _, b := range registry {
		if b.Name == name {
			return b, nil
		}
	}
	for _, b := range zooRegistry {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// MustByName is ByName but panics on unknown names.
func MustByName(name string) Benchmark {
	b, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

package workload

import (
	"capsim/internal/rng"
)

// Instr is one dynamic instruction of the synthetic stream. Sources are
// expressed as dependence distances: Src[i] = d > 0 means the instruction
// consumes the result of the instruction d positions earlier in the dynamic
// stream; 0 means no (or an already-retired) source.
type Instr struct {
	Src     [2]int32
	Latency int8
}

// InstrSource is anything that yields an infinite stream of instructions.
// *InstrStream (the generator) and internal/trace's replay cursors both
// implement it.
type InstrSource interface {
	Next() Instr
}

// InstrStream generates the synthetic dynamic instruction stream of a
// benchmark, applying its phase schedule. The stream is infinite and
// deterministic for a given seed.
type InstrStream struct {
	prof ILPProfile
	src  rng.Source

	idx int64 // dynamic instruction index

	cur        *ilpSampler // base or alt
	base, alt  *ilpSampler // alt is nil for PhaseStable
	inAlt      bool
	phaseLeft  int64
	superLeft  int64
	superInReg bool // composite: currently in the regular super-block

	// Phase-run samplers: PhaseIrregular's runs and PhaseComposite's
	// irregular stretches.
	runGeom, stretchGeom rng.Geom
}

// ilpSampler is one ILPParams set compiled to integer-domain samplers. Both
// of a profile's sets are compiled once, in NewInstrStream, so a phase flip
// only swaps a pointer.
type ilpSampler struct {
	nsrc   *rng.Table
	dist   *rng.Table
	geom   []rng.Geom // per distance component: the distance is 1 + a draw
	lat    *rng.Table
	cycles []int8 // per latency component
}

func newILPSampler(p ILPParams) *ilpSampler {
	distW := make([]float64, len(p.Dists))
	geom := make([]rng.Geom, len(p.Dists))
	for i, d := range p.Dists {
		distW[i] = d.Weight
		// Distance = 1 + geometric with mean (Mean - 1); Mean == 1 gives
		// p = 1, which yields 0 without a draw.
		geom[i] = rng.NewGeom(1 / d.Mean)
	}
	latW := make([]float64, len(p.Lats))
	cycles := make([]int8, len(p.Lats))
	for i, l := range p.Lats {
		latW[i] = l.Weight
		cycles[i] = int8(l.Cycles)
	}
	return &ilpSampler{
		nsrc:   rng.NewTable(p.SrcWeights[:]),
		dist:   rng.NewTable(distW),
		geom:   geom,
		lat:    rng.NewTable(latW),
		cycles: cycles,
	}
}

// NewInstrStream creates the stream generator for benchmark b.
func NewInstrStream(b Benchmark, seed uint64) *InstrStream {
	if err := b.ILP.Validate(); err != nil {
		panic(err)
	}
	s := &InstrStream{
		prof:        b.ILP,
		src:         *rng.New(rng.DeriveSeed(seed, b.Name+"/ilp")),
		base:        newILPSampler(b.ILP.Base),
		runGeom:     phaseRunGeom(float64(b.ILP.PeriodInstrs)),
		stretchGeom: phaseRunGeom(float64(b.ILP.PeriodInstrs) / 6),
	}
	if b.ILP.Kind != PhaseStable {
		s.alt = newILPSampler(*b.ILP.Alt)
	}
	s.superInReg = true
	s.superLeft = b.ILP.SuperPeriodInstrs
	s.cur = s.base
	s.phaseLeft = s.firstPhaseLen()
	return s
}

// InAltPhase reports whether the generator is currently in the Alt phase
// (diagnostics and phase-visualization tooling).
func (s *InstrStream) InAltPhase() bool { return s.inAlt }

// firstPhaseLen returns the length of the initial phase block.
func (s *InstrStream) firstPhaseLen() int64 {
	switch s.prof.Kind {
	case PhaseStable:
		return 1 << 62
	case PhaseIrregular:
		return s.irregularLen(s.runGeom)
	default:
		return s.prof.PeriodInstrs
	}
}

// phaseRunGeom is the sampler behind irregular phase runs of the given mean
// length: runs are 256-instruction units, geometric with mean mean/256, and
// the mean is at least 512.
func phaseRunGeom(mean float64) rng.Geom {
	if mean < 512 {
		mean = 512
	}
	return rng.NewGeom(1 / (mean / 256))
}

// irregularLen draws an irregular phase run (at least 512 instructions).
func (s *InstrStream) irregularLen(g rng.Geom) int64 {
	n := int64(s.src.Geom(g)) * 256
	if n < 512 {
		n = 512
	}
	return n
}

// advancePhase flips the active parameter set when a phase block ends.
func (s *InstrStream) advancePhase() {
	if s.prof.Kind == PhaseStable {
		s.phaseLeft = 1 << 62
		return
	}
	// Composite: check super-block boundary first.
	if s.prof.Kind == PhaseComposite && s.superLeft <= 0 {
		s.superInReg = !s.superInReg
		s.superLeft = s.prof.SuperPeriodInstrs
	}
	s.inAlt = !s.inAlt
	if s.inAlt {
		s.cur = s.alt
	} else {
		s.cur = s.base
	}
	switch s.prof.Kind {
	case PhaseIrregular:
		s.phaseLeft = s.irregularLen(s.runGeom)
	case PhaseComposite:
		if s.superInReg {
			s.phaseLeft = s.prof.PeriodInstrs
		} else {
			// Irregular stretches flip much faster than the regular
			// alternation (Figure 13(b): "varies frequently and
			// almost randomly").
			s.phaseLeft = s.irregularLen(s.stretchGeom)
		}
	default:
		s.phaseLeft = s.prof.PeriodInstrs
	}
}

// Next returns the next instruction.
func (s *InstrStream) Next() Instr {
	if s.phaseLeft <= 0 {
		s.advancePhase()
	}
	s.phaseLeft--
	if s.prof.Kind == PhaseComposite {
		s.superLeft--
	}
	s.idx++

	var in Instr
	p := s.cur
	nsrc := s.src.Pick(p.nsrc)
	for i := 0; i < nsrc; i++ {
		in.Src[i] = 1 + int32(s.src.Geom(p.geom[s.src.Pick(p.dist)]))
	}
	in.Latency = p.cycles[s.src.Pick(p.lat)]
	return in
}

// Fill writes n instructions into out (allocating if needed) and returns the
// slice.
func (s *InstrStream) Fill(out []Instr, n int) []Instr {
	if cap(out) < n {
		out = make([]Instr, n)
	}
	out = out[:n]
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

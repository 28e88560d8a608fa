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
	x    rng.State

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
		x:           rng.NewState(rng.DeriveSeed(seed, b.Name+"/ilp")),
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
	var k int
	k, s.x = s.x.Geom(g)
	n := int64(k) * 256
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

// Next returns the next instruction: a batch of one.
func (s *InstrStream) Next() Instr {
	var in [1]Instr
	s.fill(in[:])
	return in[0]
}

// Fill writes n instructions into out (allocating if needed) and returns the
// slice.
func (s *InstrStream) Fill(out []Instr, n int) []Instr {
	if cap(out) < n {
		out = make([]Instr, n)
	}
	out = out[:n]
	s.fill(out)
	return out
}

// fill is the batch step behind Next and Fill. The phase schedule is
// bookkept per run, not per instruction: the instructions up to the next
// phase boundary all draw from one parameter set, so they are one
// ilpSampler.fill call with the generator state held in locals. phaseLeft is
// positive after the boundary check (every phase length is), and a phase
// still flips lazily, before the instruction that needs it, exactly as an
// instruction-at-a-time walk would.
func (s *InstrStream) fill(out []Instr) {
	for len(out) > 0 {
		if s.phaseLeft <= 0 {
			s.advancePhase()
		}
		m := min(int64(len(out)), s.phaseLeft)
		s.phaseLeft -= m
		if s.prof.Kind == PhaseComposite {
			s.superLeft -= m
		}
		s.x = s.cur.fill(out[:m], s.x)
		out = out[m:]
	}
}

// fill draws len(out) instructions from p's mixtures, starting from state x,
// and returns the advanced state. It is the generator's one per-instruction
// body; the state stays in registers across the whole run.
func (p *ilpSampler) fill(out []Instr, x rng.State) rng.State {
	for i := range out {
		var in Instr
		var nsrc, c, d, l int
		nsrc, x = x.Pick(p.nsrc)
		for j := 0; j < nsrc; j++ {
			c, x = x.Pick(p.dist)
			d, x = x.Geom(p.geom[c])
			in.Src[j] = 1 + int32(d)
		}
		l, x = x.Pick(p.lat)
		in.Latency = p.cycles[l]
		out[i] = in
	}
	return x
}

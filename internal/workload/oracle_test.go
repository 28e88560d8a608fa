package workload

import (
	"testing"

	"capsim/internal/rng"
)

// The reference generators below are the float-walk definitions of
// InstrStream and AddressTrace: the same phase schedule and region walk,
// but every draw goes through the float sampling walks (a weighted pick
// over Float64()*total, Bool(p), and a Bool-driven geometric loop) instead
// of the precomputed integer-domain samplers. The production generators must
// match them item for item.

func refWeighted(r *rng.Source, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

func refGeometric(r *rng.Source, p float64) int {
	if p >= 1 {
		return 0
	}
	if p < 1e-9 {
		p = 1e-9
	}
	n := 0
	for !r.Bool(p) {
		n++
		if n > 1<<20 {
			break
		}
	}
	return n
}

type refInstrStream struct {
	prof       ILPProfile
	src        *rng.Source
	cur        ILPParams
	distW      []float64 // cur's component weights
	latW       []float64
	inAlt      bool
	phaseLeft  int64
	superLeft  int64
	superInReg bool
}

func newRefInstrStream(b Benchmark, seed uint64) *refInstrStream {
	s := &refInstrStream{
		prof:       b.ILP,
		src:        rng.New(rng.DeriveSeed(seed, b.Name+"/ilp")),
		superInReg: true,
		superLeft:  b.ILP.SuperPeriodInstrs,
	}
	s.setParams(b.ILP.Base)
	switch s.prof.Kind {
	case PhaseStable:
		s.phaseLeft = 1 << 62
	case PhaseIrregular:
		s.phaseLeft = s.irregularLen(float64(s.prof.PeriodInstrs))
	default:
		s.phaseLeft = s.prof.PeriodInstrs
	}
	return s
}

func (s *refInstrStream) setParams(p ILPParams) {
	s.cur = p
	s.distW = s.distW[:0]
	for _, d := range p.Dists {
		s.distW = append(s.distW, d.Weight)
	}
	s.latW = s.latW[:0]
	for _, l := range p.Lats {
		s.latW = append(s.latW, l.Weight)
	}
}

func (s *refInstrStream) irregularLen(mean float64) int64 {
	if mean < 512 {
		mean = 512
	}
	n := int64(float64(refGeometric(s.src, 1/(mean/256))) * 256)
	if n < 512 {
		n = 512
	}
	return n
}

func (s *refInstrStream) advancePhase() {
	if s.prof.Kind == PhaseStable {
		s.phaseLeft = 1 << 62
		return
	}
	if s.prof.Kind == PhaseComposite && s.superLeft <= 0 {
		s.superInReg = !s.superInReg
		s.superLeft = s.prof.SuperPeriodInstrs
	}
	s.inAlt = !s.inAlt
	if s.inAlt {
		s.setParams(*s.prof.Alt)
	} else {
		s.setParams(s.prof.Base)
	}
	switch s.prof.Kind {
	case PhaseIrregular:
		s.phaseLeft = s.irregularLen(float64(s.prof.PeriodInstrs))
	case PhaseComposite:
		if s.superInReg {
			s.phaseLeft = s.prof.PeriodInstrs
		} else {
			s.phaseLeft = s.irregularLen(float64(s.prof.PeriodInstrs) / 6)
		}
	default:
		s.phaseLeft = s.prof.PeriodInstrs
	}
}

func (s *refInstrStream) Next() Instr {
	if s.phaseLeft <= 0 {
		s.advancePhase()
	}
	s.phaseLeft--
	if s.prof.Kind == PhaseComposite {
		s.superLeft--
	}
	var in Instr
	nsrc := refWeighted(s.src, s.cur.SrcWeights[:])
	for i := 0; i < nsrc; i++ {
		c := s.cur.Dists[refWeighted(s.src, s.distW)]
		d := int32(1)
		if c.Mean > 1 {
			d += int32(refGeometric(s.src, 1/c.Mean))
		}
		in.Src[i] = d
	}
	in.Latency = int8(s.cur.Lats[refWeighted(s.src, s.latW)].Cycles)
	return in
}

type refAddressTrace struct {
	prof      MemProfile
	src       *rng.Source
	weights   []float64
	bases     []uint64
	region    int
	runLeft   int
	cursor    uint64
	streamPos []uint64
}

func newRefAddressTrace(b Benchmark, seed uint64) *refAddressTrace {
	t := &refAddressTrace{
		prof:      *b.Mem,
		src:       rng.New(rng.DeriveSeed(seed, b.Name+"/mem")),
		weights:   make([]float64, len(b.Mem.Regions)),
		bases:     make([]uint64, len(b.Mem.Regions)),
		streamPos: make([]uint64, len(b.Mem.Regions)),
	}
	var base uint64 = 1 << 20
	for i, r := range b.Mem.Regions {
		refsPerVisit := 1.0
		if r.Kind == RandomRegion {
			refsPerVisit = float64(r.Run)
		}
		t.weights[i] = r.Weight / refsPerVisit
		t.bases[i] = base
		base += uint64(r.Bytes) + 1<<20
		base = (base + (1 << 16) - 1) &^ ((1 << 16) - 1)
	}
	return t
}

func (t *refAddressTrace) Next() Ref {
	if t.runLeft == 0 {
		i := refWeighted(t.src, t.weights)
		t.region = i
		r := t.prof.Regions[i]
		switch r.Kind {
		case StreamRegion, LoopRegion:
			pos := t.streamPos[i]
			t.cursor = t.bases[i] + pos
			t.runLeft = 1
			pos += uint64(r.StrideBytes)
			if pos >= uint64(r.Bytes) {
				pos = 0
			}
			t.streamPos[i] = pos
		default:
			words := max(r.Bytes/wordBytes, 1)
			t.cursor = t.bases[i] + uint64(t.src.Intn(int(words)))*wordBytes
			t.runLeft = r.Run
		}
	}
	addr := t.cursor
	t.cursor += wordBytes
	t.runLeft--
	if t.cursor >= t.bases[t.region]+uint64(t.prof.Regions[t.region].Bytes) {
		t.runLeft = 0
	}
	return Ref{Addr: addr, Write: t.src.Bool(t.prof.WriteFrac)}
}

// oracleItems and oracleSeeds size the lockstep runs: enough items per
// application to cross many Base/Alt flips of every phased kind.
const oracleItems = 300_000

var oracleSeeds = []uint64{1998, 1, 0xdecafbad}

// TestInstrStreamOracle runs every application's instruction generator in
// lockstep with its float-walk reference. Composite applications run past
// their first super-block, into the irregular stretches, and every phased
// kind except the long blocks (whose period exceeds the run) must actually
// flip between Base and Alt.
func TestInstrStreamOracle(t *testing.T) {
	for _, b := range append(All(), ZooApps()...) {
		n := oracleItems
		if b.ILP.Kind == PhaseComposite {
			n += int(b.ILP.SuperPeriodInstrs)
		}
		for _, seed := range oracleSeeds {
			s, ref := NewInstrStream(b, seed), newRefInstrStream(b, seed)
			flips, irregular := 0, false
			for i := 0; i < n; i++ {
				alt := s.InAltPhase()
				got, want := s.Next(), ref.Next()
				if got != want {
					t.Fatalf("%s seed %d: instruction %d is %+v, reference %+v", b.Name, seed, i, got, want)
				}
				if s.InAltPhase() != ref.inAlt {
					t.Fatalf("%s seed %d: phase differs at instruction %d", b.Name, seed, i)
				}
				if s.InAltPhase() != alt {
					flips++
				}
				irregular = irregular || !ref.superInReg
			}
			switch b.ILP.Kind {
			case PhaseRegular, PhaseIrregular, PhaseComposite:
				if flips == 0 {
					t.Errorf("%s seed %d: no phase flip in %d instructions", b.Name, seed, n)
				}
			}
			if b.ILP.Kind == PhaseComposite && !irregular {
				t.Errorf("%s seed %d: never reached an irregular stretch", b.Name, seed)
			}
		}
	}
}

// TestAddressTraceOracle runs every cache application's address-trace
// generator in lockstep with its float-walk reference.
func TestAddressTraceOracle(t *testing.T) {
	for _, b := range CacheApps() {
		for _, seed := range oracleSeeds {
			tr, ref := NewAddressTrace(b, seed), newRefAddressTrace(b, seed)
			for i := 0; i < oracleItems; i++ {
				if got, want := tr.Next(), ref.Next(); got != want {
					t.Fatalf("%s seed %d: reference %d is %+v, oracle %+v", b.Name, seed, i, got, want)
				}
			}
		}
	}
}

// fillSplits are the piece sizes the batch-path tests cycle through: a
// single item, a piece shorter than any phase run and one longer than many.
var fillSplits = []int{1, 255, 4097}

// TestInstrFillMatchesNext checks the batch path against item-by-item Next:
// Fill in pieces of 1, 255 and 4097 instructions must yield, item for item,
// both what a second generator's Next yields and what the float-walk
// reference yields, and end each piece in the reference's phase. Every
// phase kind runs with short periods, so flips fall inside pieces and on
// their edges, and each phased kind must actually flip.
func TestInstrFillMatchesNext(t *testing.T) {
	gcc := MustByName("gcc").ILP
	profiles := []ILPProfile{
		{Base: gcc.Base, Kind: PhaseStable},
		{Base: gcc.Base, Alt: gcc.Alt, Kind: PhaseLongBlocks, PeriodInstrs: 9000},
		{Base: gcc.Base, Alt: gcc.Alt, Kind: PhaseRegular, PeriodInstrs: 1000},
		{Base: gcc.Base, Alt: gcc.Alt, Kind: PhaseIrregular, PeriodInstrs: 3000},
		{Base: gcc.Base, Alt: gcc.Alt, Kind: PhaseComposite, PeriodInstrs: 700, SuperPeriodInstrs: 20000},
	}
	const n = 60000
	for _, prof := range profiles {
		b := Benchmark{Name: "fill", ILP: prof}
		for _, seed := range oracleSeeds {
			s, next, ref := NewInstrStream(b, seed), NewInstrStream(b, seed), newRefInstrStream(b, seed)
			var buf []Instr
			flips, irregular, alt := 0, false, false
			for done, piece := 0, 0; done < n; piece++ {
				buf = s.Fill(buf, fillSplits[piece%len(fillSplits)])
				for i, got := range buf {
					if a, w := next.Next(), ref.Next(); got != a || got != w {
						t.Fatalf("kind %d seed %d: instruction %d is %+v from Fill, %+v from Next, %+v from the reference",
							prof.Kind, seed, done+i, got, a, w)
					}
					if ref.inAlt != alt {
						flips, alt = flips+1, ref.inAlt
					}
					irregular = irregular || !ref.superInReg
				}
				done += len(buf)
				if s.InAltPhase() != ref.inAlt || s.InAltPhase() != next.InAltPhase() {
					t.Fatalf("kind %d seed %d: phase differs after %d instructions", prof.Kind, seed, done)
				}
			}
			if prof.Kind != PhaseStable && flips < 5 {
				t.Errorf("kind %d seed %d: only %d phase flips in %d instructions", prof.Kind, seed, flips, n)
			}
			if prof.Kind == PhaseComposite && !irregular {
				t.Errorf("kind %d seed %d: never reached an irregular stretch", prof.Kind, seed)
			}
		}
	}
}

// TestRefFillMatchesNext is the address-trace counterpart over every cache
// application: Fill in pieces of 1, 255 and 4097 references against a second
// generator's Next and the float-walk reference.
func TestRefFillMatchesNext(t *testing.T) {
	const n = 40000
	for _, b := range CacheApps() {
		for _, seed := range oracleSeeds {
			tr, next, ref := NewAddressTrace(b, seed), NewAddressTrace(b, seed), newRefAddressTrace(b, seed)
			var buf []Ref
			for done, piece := 0, 0; done < n; piece++ {
				buf = tr.Fill(buf, fillSplits[piece%len(fillSplits)])
				for i, got := range buf {
					if a, w := next.Next(), ref.Next(); got != a || got != w {
						t.Fatalf("%s seed %d: reference %d is %+v from Fill, %+v from Next, %+v from the reference",
							b.Name, seed, done+i, got, a, w)
					}
				}
				done += len(buf)
			}
		}
	}
}

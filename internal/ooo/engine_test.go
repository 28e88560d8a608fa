package ooo

import (
	"fmt"
	"testing"

	"capsim/internal/workload"
)

// The tests in this file enforce the package's central claim: the
// production engine and the window-scan reference model (scan_test.go) are
// bit-identical in every statistic for any instruction stream and any
// schedule of Run, RunWithLoads, Drain and Resize calls.

// engine is the surface the differential tests drive; *Core and *scanCore
// both implement it.
type engine interface {
	Run(stream workload.InstrSource, n int64) Stats
	RunWithLoads(stream workload.InstrSource, n int64, rpi float64, memLat func(write bool) int64) Stats
	Drain(max int)
	Resize(newSize int) error
	Stats() Stats
	Occupancy() int
}

// Occupancy returns the current number of window entries in use.
func (c *Core) Occupancy() int { return c.occ }

// lcg is a deterministic latency generator for RunWithLoads differential
// runs: both engines get an independent copy seeded identically, so the
// sequences match exactly as long as the call counts do (which is itself
// part of the equivalence being tested).
type lcg struct{ x uint64 }

func (l *lcg) next() uint64 {
	l.x = l.x*6364136223846793005 + 1442695040888963407
	return l.x >> 33
}

func (l *lcg) memLat(bool) int64 { return int64(l.next() % 60) }

// stallLat is memLat with a rare 2^15-cycle stall: long enough that a
// consumer's issue cycle lands far past the issue-count ring, and that
// dispatch laps the 8192-entry completion ring while the load is still
// pending even at issue width 1, so both ring growths fire mid-run. (The
// scan model walks every stalled cycle, so a longer stall only slows the
// fuzzer.)
func (l *lcg) stallLat(bool) int64 {
	if r := l.next(); r%2048 != 0 {
		return int64(r % 60)
	}
	return 1 << 15
}

// enginePair drives a scan model and a production core through the same
// schedule, checking Stats and Occupancy equality after every operation.
// Each engine gets its own copy of every input: index 0 is the scan model,
// index 1 the production core.
type enginePair struct {
	t    *testing.T
	engs [2]engine
}

func newEnginePair(t *testing.T, cfg Config) *enginePair {
	t.Helper()
	sc, err := newScanCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &enginePair{t: t, engs: [2]engine{sc, MustNew(cfg)}}
}

func (p *enginePair) step(name string, f func(e engine, i int)) {
	p.t.Helper()
	for i, e := range p.engs {
		f(e, i)
	}
	if a, b := p.engs[0].Stats(), p.engs[1].Stats(); a != b {
		p.t.Fatalf("%s: scan stats %+v != engine stats %+v", name, a, b)
	}
	if a, b := p.engs[0].Occupancy(), p.engs[1].Occupancy(); a != b {
		p.t.Fatalf("%s: scan occupancy %d != engine occupancy %d", name, a, b)
	}
}

func TestEngineDifferentialRun(t *testing.T) {
	for _, b := range []string{"gcc", "swim", "compress"} {
		bench, err := workload.ByName(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4, 16, 61, 128} {
			for _, width := range []int{1, 3, 8} {
				p := newEnginePair(t, Config{WindowSize: w, IssueWidth: width})
				ss := [2]*workload.InstrStream{workload.NewInstrStream(bench, 11), workload.NewInstrStream(bench, 11)}
				for i := 0; i < 5; i++ {
					p.step("run", func(e engine, k int) { e.Run(ss[k], 4000) })
				}
			}
		}
	}
}

func TestEngineDifferentialSchedule(t *testing.T) {
	// Runs interleaved with drains and resizes in both directions, plus
	// RunWithLoads intervals: the full schedule surface the queue machines
	// exercise.
	bench, err := workload.ByName("turb3d")
	if err != nil {
		t.Fatal(err)
	}
	p := newEnginePair(t, PaperConfig(64))
	ss := [2]*workload.InstrStream{workload.NewInstrStream(bench, 7), workload.NewInstrStream(bench, 7)}
	ls := [2]*lcg{{x: 99}, {x: 99}}
	run := func(n int64) {
		p.step("run", func(e engine, k int) { e.Run(ss[k], n) })
	}
	loads := func(n int64, rpi float64) {
		p.step("loads", func(e engine, k int) { e.RunWithLoads(ss[k], n, rpi, ls[k].memLat) })
	}
	resize := func(name string, w int) {
		p.step(name, func(e engine, _ int) {
			if err := e.Resize(w); err != nil {
				t.Fatal(err)
			}
		})
	}
	run(3000)
	p.step("drain", func(e engine, _ int) { e.Drain(10) })
	run(500)
	resize("shrink", 16)
	run(2000)
	loads(2500, 0.31)
	resize("grow", 128)
	loads(2500, 0.87)
	p.step("drain0", func(e engine, _ int) { e.Drain(0) })
	run(4000)
	resize("shrink2", 48)
	run(3000)
	if ls[0].x != ls[1].x {
		t.Fatalf("memLat generators diverged: %d vs %d", ls[0].x, ls[1].x)
	}
}

// fuzzSource synthesizes adversarial instruction streams directly, without a
// workload profile: dependence distances occasionally exceed maxDist (so the
// retirement horizon is exercised) and latencies include zero. While chain is
// positive it emits zero-latency instructions that each depend on the
// previous one — the same-cycle wakeup case, at its densest. While indep is
// positive it emits single-cycle instructions of which only every seventh
// has a source, its predecessor: dispatch keeps flowing past a long-stalled
// load, and the load's rare consumer waits on it alone.
type fuzzSource struct {
	l            lcg
	chain, indep int64
}

func (f *fuzzSource) Next() workload.Instr {
	var in workload.Instr
	if f.chain > 0 {
		f.chain--
		in.Src[0] = 1
		return in
	}
	if f.indep > 0 {
		if f.indep--; f.indep%7 == 0 {
			in.Src[0] = 1
		}
		in.Latency = 1
		return in
	}
	r := f.l.next()
	switch r % 8 {
	case 0: // no sources
	case 1: // one long-distance source: beyond maxDist, past the ring, or negative
		k := r >> 22 & 1
		in.Src[k] = int32(1 + (r>>8)%(8*maxDist))
		if r>>23&7 == 0 {
			in.Src[k] = -int32(1 + r>>26)
		}
	default:
		in.Src[0] = int32((r >> 8) % 48)
		in.Src[1] = int32((r >> 16) % 48)
	}
	in.Latency = int8((r >> 24) % 21) // 0..20
	return in
}

// ringsAgree checks the production core's completion ring against the scan
// model's, sequence number by sequence number, over the span both still
// cover: every instruction the scan has issued must complete at the same
// cycle in both. It pins per-instruction timing, not just the aggregate
// Stats, so a ring rehomed with a lost slot shows up even when the lost
// completion happens not to move a statistic.
func ringsAgree(c *Core, sc *scanCore) error {
	for s := max(0, sc.seq-int64(min(len(c.done), len(sc.done)))); s < sc.seq; s++ {
		if want := sc.done[s&sc.mask]; want != scanPending && c.done[s&c.mask] != want {
			return fmt.Errorf("seq %d completes at %d, scan model %d", s, c.done[s&c.mask], want)
		}
	}
	return nil
}

// FuzzOooEngines drives the scan model and the production core through a
// fuzzed schedule on a fuzzed machine: issue width 1–8 (from width) and
// initial window 1–140 (from window). Each script byte pair is an operation
// and its argument: Run, Drain, Resize, RunWithLoads, or a Run over a
// zero-latency dependence chain.
func FuzzOooEngines(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(31), []byte{0, 10, 1, 4, 2, 30, 3, 9})
	f.Add(uint64(42), uint8(3), uint8(31), []byte{2, 0, 0, 200, 1, 0, 2, 255, 3, 50, 0, 3})
	f.Add(uint64(1998), uint8(3), uint8(31), []byte{0, 255, 2, 1, 0, 255, 1, 255, 2, 140})
	f.Add(uint64(7), uint8(0), uint8(15), []byte{0, 40, 3, 90, 2, 3, 0, 60, 1, 0, 4, 30, 3, 20})
	f.Add(uint64(5), uint8(7), uint8(127), []byte{4, 100, 0, 5, 4, 255, 1, 2, 2, 8, 4, 60, 3, 40})
	f.Fuzz(func(t *testing.T, seed uint64, width, window uint8, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		cfg := Config{WindowSize: 1 + int(window)%140, IssueWidth: 1 + int(width)%8}
		sc, err := newScanCore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := MustNew(cfg)
		engs := [2]engine{sc, c}
		srcs := [2]*fuzzSource{{l: lcg{x: seed}}, {l: lcg{x: seed}}}
		lats := [2]*lcg{{x: seed ^ 0xabcdef}, {x: seed ^ 0xabcdef}}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], int64(script[i+1])
			for k, e := range engs {
				switch op % 5 {
				case 0:
					e.Run(srcs[k], 1+arg*13)
				case 1:
					e.Drain(int(arg) % (sc.Config().WindowSize + 1))
				case 2:
					if err := e.Resize(1 + int(arg)%140); err != nil {
						t.Fatal(err)
					}
				case 3:
					e.RunWithLoads(srcs[k], 1+arg*7, float64(arg%100)/100, lats[k].memLat)
				default:
					srcs[k].chain = 1 + arg*9
					e.Run(srcs[k], 1+arg*5)
				}
			}
			if a, b := sc.Stats(), c.Stats(); a != b {
				t.Fatalf("op %d (%d,%d): scan %+v != engine %+v", i/2, op, arg, a, b)
			}
			if a, b := sc.Occupancy(), c.Occupancy(); a != b {
				t.Fatalf("op %d: occupancy scan %d != engine %d", i/2, a, b)
			}
			if lats[0].x != lats[1].x {
				t.Fatalf("op %d: memLat call sequences diverged", i/2)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
			if err := ringsAgree(c, sc); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
		}
	})
}

func TestRunWithLoadsCarryOver(t *testing.T) {
	// Splitting a RunWithLoads run into intervals must yield the identical
	// load placement (memLat call count and argument sequence) and
	// statistics as one unbroken run: the fractional-load accumulator
	// carries across calls.
	bench, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	const rpi = 0.37
	type probe struct {
		c     *Core
		s     *workload.InstrStream
		l     *lcg
		calls int64
	}
	mk := func() *probe {
		p := &probe{c: MustNew(PaperConfig(64)), s: workload.NewInstrStream(bench, 21), l: &lcg{x: 5}}
		return p
	}
	run := func(p *probe, n int64) {
		p.c.RunWithLoads(p.s, n, rpi, func(w bool) int64 { p.calls++; return p.l.memLat(w) })
	}
	whole, split := mk(), mk()
	run(whole, 10000)
	for i := 0; i < 4; i++ {
		run(split, 2500)
	}
	// Run's per-call overshoot telescopes: the split run's final issue
	// target can exceed the unbroken run's, so top the shorter run up to
	// the longer one's issued count. Both cores stop at the first cycle
	// whose cumulative issue count reaches that shared target, so from
	// identical per-instruction behavior (the property under test) follows
	// exact state equality.
	if d := split.c.Stats().Issued - whole.c.Stats().Issued; d > 0 {
		run(whole, d)
	} else if d < 0 {
		run(split, -d)
	}
	if a, b := whole.c.Stats(), split.c.Stats(); a != b {
		t.Errorf("stats differ: unbroken %+v, split %+v", a, b)
	}
	if whole.calls != split.calls || whole.l.x != split.l.x {
		t.Errorf("load sequence differs: unbroken %d calls, split %d calls", whole.calls, split.calls)
	}
	// Sanity: loads actually happened at roughly rpi per dispatched instr.
	st := whole.c.Stats()
	if lo := int64(float64(st.Instrs)*rpi) - 2; whole.calls < lo {
		t.Errorf("memLat called %d times for %d dispatches at rpi %v", whole.calls, st.Instrs, rpi)
	}
}

func TestMultiCoreDifferential(t *testing.T) {
	// MultiCore per-core stats must be bit-identical to independent cores
	// running private copies of the same stream — across multiple RunEach
	// calls (continuation), against both a private core and the scan model.
	bench, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{16, 32, 48, 64, 80, 96, 112, 128}
	cfgs := make([]Config, len(sizes))
	for i, w := range sizes {
		cfgs[i] = PaperConfig(w)
	}
	mc, err := NewMultiCore(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	src := workload.NewInstrStream(bench, 33)
	for round := 0; round < 3; round++ {
		got := mc.RunEach(src, 5000)
		for i, cfg := range cfgs {
			for name, ref := range refEngines(t, cfg) {
				refSrc := workload.NewInstrStream(bench, 33)
				var want Stats
				for r := 0; r <= round; r++ {
					want = ref.Run(refSrc, 5000)
				}
				if got[i] != want {
					t.Fatalf("round %d W=%d: multicore %+v != independent %s %+v",
						round, cfg.WindowSize, got[i], name, want)
				}
			}
		}
	}
}

func TestMultiCoreRejectsEmpty(t *testing.T) {
	if _, err := NewMultiCore(nil); err == nil {
		t.Error("empty config list accepted")
	}
	if _, err := NewMultiCore([]Config{{WindowSize: 0, IssueWidth: 8}}); err == nil {
		t.Error("invalid config accepted")
	}
}

// lapSource emits single-cycle instructions of which every seventh reads its
// predecessor. Paired with an rpi-1.0 RunWithLoads over lapLat, it laps the
// completion ring while completions are still in the future, forcing the
// recycle guard's growth, and a stalled load's consumer gets an issue cycle
// far past the issue-count ring, forcing that ring's growth.
type lapSource struct{ n int64 }

func (s *lapSource) Next() workload.Instr {
	in := workload.Instr{Latency: 1}
	if s.n++; s.n%7 == 0 {
		in.Src[0] = 1
	}
	return in
}

// lapLat returns a fresh load-latency source for lapSource runs: every
// 5000th load completes 200k cycles late, far past the ring's lap time.
func lapLat() func(bool) int64 {
	var calls int64
	return func(bool) int64 {
		if calls++; calls%5000 == 0 {
			return 200_000
		}
		return 0
	}
}

func TestRingGrowPreservesState(t *testing.T) {
	runEngine := func(e engine) Stats {
		return e.RunWithLoads(&lapSource{}, 60_000, 1.0, lapLat())
	}
	sc, err := newScanCore(PaperConfig(128))
	if err != nil {
		t.Fatal(err)
	}
	c := MustNew(PaperConfig(128))
	if sst, st := runEngine(sc), runEngine(c); sst != st {
		t.Fatalf("scan %+v != engine %+v after ring growth", sst, st)
	}
	if sc.Stats() != c.Stats() {
		t.Fatalf("cumulative stats diverge: %+v vs %+v", sc.Stats(), c.Stats())
	}
	if err := ringsAgree(c, sc); err != nil {
		t.Fatal(err)
	}
	base := ringSize(128)
	if len(sc.done) <= base || len(c.done) <= base || len(c.slots) <= initSlots {
		t.Fatalf("rings did not grow (completion: scan %d, engine %d, base %d; issue counts %d): growth paths untested",
			len(sc.done), len(c.done), base, len(c.slots))
	}
}

// TestMultiCoreRingGrowPreservesState is TestRingGrowPreservesState through
// the batched path: with 200k-cycle load stalls, every member's completion
// ring and issue-count ring grow inside a RunEachWithLoads round, and each
// member still agrees with a private scan model and a private core.
func TestMultiCoreRingGrowPreservesState(t *testing.T) {
	cfgs := []Config{PaperConfig(128), {WindowSize: 16, IssueWidth: 4}, {WindowSize: 61, IssueWidth: 1}}
	lats := make([]func(bool) int64, len(cfgs))
	for i := range lats {
		lats[i] = lapLat()
	}
	mc, err := NewMultiCore(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	got := mc.RunEachWithLoads(&lapSource{}, 60_000, 1.0, lats)
	for i, cfg := range cfgs {
		c := mc.Cores()[i]
		for name, ref := range refEngines(t, cfg) {
			if want := ref.RunWithLoads(&lapSource{}, 60_000, 1.0, lapLat()); got[i] != want {
				t.Fatalf("W=%d: multicore %+v != %s %+v after ring growth", cfg.WindowSize, got[i], name, want)
			}
			if sc, ok := ref.(*scanCore); ok {
				if err := ringsAgree(c, sc); err != nil {
					t.Fatalf("W=%d: %v", cfg.WindowSize, err)
				}
			}
		}
		if len(c.done) <= ringSize(cfg.WindowSize) || len(c.slots) <= initSlots {
			t.Fatalf("W=%d: rings did not grow (completion %d, issue counts %d): growth paths untested",
				cfg.WindowSize, len(c.done), len(c.slots))
		}
	}
}

// refEngines returns a fresh private production core and scan model for cfg,
// keyed by name: the independent references the MultiCore differentials
// compare each member core against.
func refEngines(t *testing.T, cfg Config) map[string]engine {
	t.Helper()
	sc, err := newScanCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]engine{"core": MustNew(cfg), "scan model": sc}
}

func TestRunEachWithLoadsDifferential(t *testing.T) {
	// RunEachWithLoads must be bit-identical to independent RunWithLoads
	// runs with the same per-core latency sources — same stats AND same
	// memLat call sequence (the joint kernel's cache rows depend on the
	// latter) — across interval splits, against both a private core and the
	// scan model.
	bench, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{16, 64, 128}
	const rpi = 0.3
	cfgs := make([]Config, len(sizes))
	for i, w := range sizes {
		cfgs[i] = PaperConfig(w)
	}
	mc, err := NewMultiCore(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	lats := make([]*lcg, len(sizes))
	calls := make([]int64, len(sizes))
	memLat := make([]func(bool) int64, len(sizes))
	for i := range sizes {
		l := &lcg{x: uint64(1000 + i)}
		lats[i] = l
		i := i
		memLat[i] = func(w bool) int64 { calls[i]++; return l.memLat(w) }
	}
	src := workload.NewInstrStream(bench, 77)
	for round := 0; round < 3; round++ {
		got := mc.RunEachWithLoads(src, 4000, rpi, memLat)
		for i, cfg := range cfgs {
			for name, ref := range refEngines(t, cfg) {
				refSrc := workload.NewInstrStream(bench, 77)
				refLat := &lcg{x: uint64(1000 + i)}
				var refCalls int64
				var want Stats
				for r := 0; r <= round; r++ {
					want = ref.RunWithLoads(refSrc, 4000, rpi, func(w bool) int64 { refCalls++; return refLat.memLat(w) })
				}
				if got[i] != want {
					t.Fatalf("round %d W=%d: multicore %+v != independent %s %+v",
						round, cfg.WindowSize, got[i], name, want)
				}
				if calls[i] != refCalls || lats[i].x != refLat.x {
					t.Fatalf("round %d W=%d: load sequence diverged from the %s (%d vs %d calls)",
						round, cfg.WindowSize, name, calls[i], refCalls)
				}
			}
		}
	}
}

// schedSource is a fuzzSource whose chain and independent-instruction runs
// start at scheduled stream positions, so every copy of the stream switches
// mode at the same instruction — however far ahead of its consumers a
// MultiCore's shared buffer has read it.
type schedSource struct {
	fuzzSource
	pos   int64
	sched *[]modeSwitch
	next  int
}

// modeSwitch applies set to a stream copy when it reaches position at.
type modeSwitch struct {
	at  int64
	set func(*fuzzSource)
}

func (s *schedSource) Next() workload.Instr {
	for sw := *s.sched; s.next < len(sw) && sw[s.next].at == s.pos; s.next++ {
		sw[s.next].set(&s.fuzzSource)
	}
	s.pos++
	return s.fuzzSource.Next()
}

// FuzzMultiCore drives a MultiCore of 1–4 members through a fuzzed schedule
// and checks every member, after every operation, against a private scan
// model fed its own copy of the stream. shape picks the member count and
// each member's issue width (1–8) and initial window (1–140). Each script
// byte pair is an operation and its argument: RunEach, RunEachWithLoads, a
// member's Resize or Drain, a RunEach over a zero-latency dependence chain,
// or a RunEachWithLoads at one load per instruction over nearly independent
// instructions whose latencies include rare 2^15-cycle stalls, so both ring
// growths fire inside the batched kernel. (Stalls stay out of the dependent
// streams: a window full of a stall's dependents costs the scan model a
// window walk per stalled cycle.)
func FuzzMultiCore(f *testing.F) {
	f.Add(uint64(1), uint64(0x3_1f_5_0f_2_1f_7_4b_3), []byte{0, 10, 1, 40, 2, 30, 3, 9, 4, 20})
	f.Add(uint64(42), uint64(0x2_40_7_8a_7_10_3_00_1), []byte{5, 255, 5, 255, 2, 7, 0, 200, 3, 3, 1, 90})
	f.Add(uint64(1998), uint64(0x1_05_0_7f_7_20_7_ff_3), []byte{1, 255, 3, 0, 5, 128, 4, 60, 2, 255, 0, 255})
	f.Add(uint64(7), uint64(0x0_00_0_00_0_00_7_3f_0), []byte{5, 200, 0, 40, 1, 99, 3, 1, 5, 200, 0, 90})
	f.Fuzz(func(t *testing.T, seed, shape uint64, script []byte) {
		if len(script) > 32 {
			script = script[:32]
		}
		m := 1 + int(shape%4)
		cfgs := make([]Config, m)
		for j := range cfgs {
			b := shape >> (2 + 11*j)
			cfgs[j] = Config{WindowSize: 1 + int(b>>3&0xff)%140, IssueWidth: 1 + int(b&7)}
		}
		mc, err := NewMultiCore(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		var sched []modeSwitch
		src := &schedSource{fuzzSource: fuzzSource{l: lcg{x: seed}}, sched: &sched}
		scans := make([]*scanCore, m)
		srcs := make([]*schedSource, m)
		lats := make([][2]*lcg, m) // [0] feeds the member core, [1] its scan model
		memLat, stallLat := make([]func(bool) int64, m), make([]func(bool) int64, m)
		for j, cfg := range cfgs {
			if scans[j], err = newScanCore(cfg); err != nil {
				t.Fatal(err)
			}
			srcs[j] = &schedSource{fuzzSource: fuzzSource{l: lcg{x: seed}}, sched: &sched}
			lats[j] = [2]*lcg{{x: seed ^ uint64(j+1)}, {x: seed ^ uint64(j+1)}}
			memLat[j], stallLat[j] = lats[j][0].memLat, lats[j][0].stallLat
		}
		run := func(n int64, rpi float64, stalls bool) {
			switch {
			case rpi == 0:
				mc.RunEach(src, n)
			case stalls:
				mc.RunEachWithLoads(src, n, rpi, stallLat)
			default:
				mc.RunEachWithLoads(src, n, rpi, memLat)
			}
			for j, sc := range scans {
				lat := lats[j][1].memLat
				if stalls {
					lat = lats[j][1].stallLat
				}
				sc.RunWithLoads(srcs[j], n, rpi, lat)
			}
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], int64(script[i+1])
			j := int(arg) % m
			switch op % 6 {
			case 0:
				run(1+arg*13, 0, false)
			case 1:
				run(1+arg*7, float64(arg%100)/100, false)
			case 2:
				w := 1 + int(arg*37)%140
				if err := mc.Cores()[j].Resize(w); err != nil {
					t.Fatal(err)
				}
				if err := scans[j].Resize(w); err != nil {
					t.Fatal(err)
				}
			case 3:
				level := int(arg) % (scans[j].cfg.WindowSize + 1)
				mc.Cores()[j].Drain(level)
				scans[j].Drain(level)
			case 4:
				sched = append(sched, modeSwitch{src.pos, func(s *fuzzSource) { s.chain = 1 + arg*9 }})
				run(1+arg*5, 0, false)
			default:
				sched = append(sched, modeSwitch{src.pos, func(s *fuzzSource) { s.indep = 1 + arg*64 }})
				run(1+arg*64, 1, true)
			}
			for k, c := range mc.Cores() {
				if a, b := scans[k].Stats(), c.Stats(); a != b {
					t.Fatalf("op %d (%d,%d) member %d %+v: scan %+v != multicore %+v", i/2, op, arg, k, cfgs[k], a, b)
				}
				if a, b := scans[k].Occupancy(), c.Occupancy(); a != b {
					t.Fatalf("op %d member %d: occupancy scan %d != multicore %d", i/2, k, a, b)
				}
				if lats[k][0].x != lats[k][1].x {
					t.Fatalf("op %d member %d: memLat call sequences diverged", i/2, k)
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("op %d member %d: %v", i/2, k, err)
				}
				if err := ringsAgree(c, scans[k]); err != nil {
					t.Fatalf("op %d member %d: %v", i/2, k, err)
				}
			}
		}
	})
}

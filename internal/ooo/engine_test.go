package ooo

import (
	"testing"

	"capsim/internal/workload"
)

// The tests in this file enforce the package's central claim: the event
// engine and the window-scan reference engine are bit-identical in every
// statistic for any instruction stream and any schedule of Run,
// RunWithLoads, Drain and Resize calls.

// The two issue engines, as newCore's scan argument.
const (
	eventEngine = false
	scanEngine  = true
)

// engineName labels an engine in failure messages.
func engineName(scan bool) string {
	if scan {
		return "scan"
	}
	return "event"
}

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

// enginePair drives a scan core and an event core through the same schedule,
// checking Stats and Occupancy equality after every operation.
type enginePair struct {
	t        *testing.T
	scan, ev *Core
}

func newEnginePair(t *testing.T, cfg Config) *enginePair {
	t.Helper()
	sc, err := newCore(cfg, scanEngine)
	if err != nil {
		t.Fatal(err)
	}
	evc, err := newCore(cfg, eventEngine)
	if err != nil {
		t.Fatal(err)
	}
	return &enginePair{t: t, scan: sc, ev: evc}
}

func (p *enginePair) step(name string, f func(c *Core)) {
	p.t.Helper()
	f(p.scan)
	f(p.ev)
	if a, b := p.scan.Stats(), p.ev.Stats(); a != b {
		p.t.Fatalf("%s: scan stats %+v != event stats %+v", name, a, b)
	}
	if a, b := p.scan.Occupancy(), p.ev.Occupancy(); a != b {
		p.t.Fatalf("%s: scan occupancy %d != event occupancy %d", name, a, b)
	}
}

func TestEngineDifferentialRun(t *testing.T) {
	for _, b := range []string{"gcc", "swim", "compress"} {
		bench, err := workload.ByName(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4, 16, 61, 128} {
			p := newEnginePair(t, Config{WindowSize: w, IssueWidth: 8})
			ss := workload.NewInstrStream(bench, 11)
			es := workload.NewInstrStream(bench, 11)
			for i := 0; i < 5; i++ {
				p.step("run", func(c *Core) {
					s := ss
					if !c.scan {
						s = es
					}
					c.Run(s, 4000)
				})
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
	ss := workload.NewInstrStream(bench, 7)
	es := workload.NewInstrStream(bench, 7)
	sl := &lcg{x: 99}
	el := &lcg{x: 99}
	pick := func(c *Core, a, b interface{}) interface{} {
		if !c.scan {
			return b
		}
		return a
	}
	run := func(n int64) {
		p.step("run", func(c *Core) {
			c.Run(pick(c, ss, es).(*workload.InstrStream), n)
		})
	}
	loads := func(n int64, rpi float64) {
		p.step("loads", func(c *Core) {
			c.RunWithLoads(pick(c, ss, es).(*workload.InstrStream), n, rpi, pick(c, sl, el).(*lcg).memLat)
		})
	}
	run(3000)
	p.step("drain", func(c *Core) { c.Drain(10) })
	run(500)
	p.step("shrink", func(c *Core) {
		if err := c.Resize(16); err != nil {
			t.Fatal(err)
		}
	})
	run(2000)
	loads(2500, 0.31)
	p.step("grow", func(c *Core) {
		if err := c.Resize(128); err != nil {
			t.Fatal(err)
		}
	})
	loads(2500, 0.87)
	p.step("drain0", func(c *Core) { c.Drain(0) })
	run(4000)
	p.step("shrink2", func(c *Core) {
		if err := c.Resize(48); err != nil {
			t.Fatal(err)
		}
	})
	run(3000)
	if sl.x != el.x {
		t.Fatalf("memLat generators diverged: %d calls vs %d-state mismatch", sl.x, el.x)
	}
}

// fuzzSource synthesizes adversarial instruction streams directly, without a
// workload profile: dependence distances occasionally exceed maxDist (so the
// retirement horizon is exercised) and latencies include zero.
type fuzzSource struct{ l lcg }

func (f *fuzzSource) Next() workload.Instr {
	var in workload.Instr
	r := f.l.next()
	switch r % 8 {
	case 0: // no sources
	case 1: // one long-distance source, sometimes beyond maxDist
		in.Src[0] = int32(1 + (r>>8)%(3*maxDist))
	default:
		in.Src[0] = int32((r >> 8) % 48)
		in.Src[1] = int32((r >> 16) % 48)
	}
	in.Latency = int8((r >> 24) % 21) // 0..20
	return in
}

func FuzzOooEngines(f *testing.F) {
	f.Add(uint64(1), []byte{0, 10, 1, 4, 2, 30, 3, 9})
	f.Add(uint64(42), []byte{2, 0, 0, 200, 1, 0, 2, 255, 3, 50, 0, 3})
	f.Add(uint64(1998), []byte{0, 255, 2, 1, 0, 255, 1, 255, 2, 140})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		sc, _ := newCore(Config{WindowSize: 32, IssueWidth: 4}, scanEngine)
		ev, _ := newCore(Config{WindowSize: 32, IssueWidth: 4}, eventEngine)
		ssrc := &fuzzSource{l: lcg{x: seed}}
		esrc := &fuzzSource{l: lcg{x: seed}}
		sl := &lcg{x: seed ^ 0xabcdef}
		el := &lcg{x: seed ^ 0xabcdef}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], int64(script[i+1])
			switch op % 4 {
			case 0:
				sc.Run(ssrc, 1+arg*13)
				ev.Run(esrc, 1+arg*13)
			case 1:
				max := int(arg) % (sc.Config().WindowSize + 1)
				sc.Drain(max)
				ev.Drain(max)
			case 2:
				w := 1 + int(arg)%140
				if err := sc.Resize(w); err != nil {
					t.Fatal(err)
				}
				if err := ev.Resize(w); err != nil {
					t.Fatal(err)
				}
			default:
				rpi := float64(arg%100) / 100
				sc.RunWithLoads(ssrc, 1+arg*7, rpi, sl.memLat)
				ev.RunWithLoads(esrc, 1+arg*7, rpi, el.memLat)
			}
			if a, b := sc.Stats(), ev.Stats(); a != b {
				t.Fatalf("op %d (%d,%d): scan %+v != event %+v", i/2, op, arg, a, b)
			}
			if a, b := sc.Occupancy(), ev.Occupancy(); a != b {
				t.Fatalf("op %d: occupancy scan %d != event %d", i/2, a, b)
			}
			if sl.x != el.x {
				t.Fatalf("op %d: memLat call sequences diverged", i/2)
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
	// calls (continuation), against both an event core and a scan core.
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
			for _, scan := range []bool{eventEngine, scanEngine} {
				ref, err := newCore(cfg, scan)
				if err != nil {
					t.Fatal(err)
				}
				refSrc := workload.NewInstrStream(bench, 33)
				var want Stats
				for r := 0; r <= round; r++ {
					want = ref.Run(refSrc, 5000)
				}
				if got[i] != want {
					t.Fatalf("round %d W=%d: multicore %+v != independent %s core %+v",
						round, cfg.WindowSize, got[i], engineName(scan), want)
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

// slowLoadSource emits independent single-cycle instructions; paired with an
// rpi-1.0 RunWithLoads whose memLat occasionally returns an enormous stall,
// it laps the completion ring while completions are still in the future and
// forces the recycleGuard growth path.
type slowLoadSource struct{}

func (slowLoadSource) Next() workload.Instr { return workload.Instr{Latency: 1} }

func TestRingGrowPreservesState(t *testing.T) {
	runEngine := func(scan bool) (*Core, Stats) {
		c, err := newCore(PaperConfig(128), scan)
		if err != nil {
			t.Fatal(err)
		}
		var calls int64
		memLat := func(bool) int64 {
			calls++
			if calls%5000 == 0 {
				return 200_000 // completion far past the ring's lap time
			}
			return 0
		}
		st := c.RunWithLoads(slowLoadSource{}, 60_000, 1.0, memLat)
		return c, st
	}
	sc, sst := runEngine(scanEngine)
	ev, est := runEngine(eventEngine)
	if sst != est {
		t.Fatalf("scan %+v != event %+v after ring growth", sst, est)
	}
	if sc.Stats() != ev.Stats() {
		t.Fatalf("cumulative stats diverge: %+v vs %+v", sc.Stats(), ev.Stats())
	}
	base := ringSize(128)
	if len(sc.done) <= base || len(ev.done) <= base {
		t.Fatalf("ring did not grow (scan %d, event %d, base %d): recycleGuard untested",
			len(sc.done), len(ev.done), base)
	}
}

func TestRunEachWithLoadsDifferential(t *testing.T) {
	// RunEachWithLoads must be bit-identical to independent RunWithLoads
	// runs with the same per-core latency sources — same stats AND same
	// memLat call sequence (the joint kernel's cache rows depend on the
	// latter) — across interval splits, against both an event core and a
	// scan core.
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
			for _, scan := range []bool{eventEngine, scanEngine} {
				ref, err := newCore(cfg, scan)
				if err != nil {
					t.Fatal(err)
				}
				refSrc := workload.NewInstrStream(bench, 77)
				refLat := &lcg{x: uint64(1000 + i)}
				var refCalls int64
				var want Stats
				for r := 0; r <= round; r++ {
					want = ref.RunWithLoads(refSrc, 4000, rpi, func(w bool) int64 { refCalls++; return refLat.memLat(w) })
				}
				if got[i] != want {
					t.Fatalf("round %d W=%d: multicore %+v != independent %s core %+v",
						round, cfg.WindowSize, got[i], engineName(scan), want)
				}
				if calls[i] != refCalls || lats[i].x != refLat.x {
					t.Fatalf("round %d W=%d: load sequence diverged from the %s core (%d vs %d calls)",
						round, cfg.WindowSize, engineName(scan), calls[i], refCalls)
				}
			}
		}
	}
}

package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"

	"capsim/internal/memo"
	"capsim/internal/obs"
	"capsim/internal/ooo"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// obsRaceSimCells counts the (policy column × interval) cells actually
// simulated by race-family extension, the fixed roster's columns included.
// policy.cells counts every cell a Race call returns, replayed or simulated.
var obsRaceSimCells = obs.NewCounter("policy.race_sim_cells")

// raceKey identifies one race family: a contender roster raced over an
// application's stream in n-instruction intervals. It is the content key
// (memo.Key) of the application's full profile — not its name, so a
// same-name copy with one changed field is a different stream — the seed,
// the size menu, the clock periods and the roster. The key EXCLUDES the
// clock-switch penalty — the clock system charges a switch, the core never
// sees it, and policies observe only (config, TPI, IPC), whose TPI is
// cycles × period / issued — so every penalty point replays one family. The
// clock periods are in the key instead of the feature size: they are what
// the monitors' TPI samples, and so the policies' decisions, depend on. It
// reports false when the roster cannot key a shared family (rosterKey).
func (mp *MultiPolicy) raceKey(specs []PolicySpec) (string, bool) {
	roster, ok := rosterKey(specs)
	if !ok {
		return "", false
	}
	return memo.Key(mp.b, mp.seed, mp.sizes, mp.cycs, mp.n, roster)
}

// raceStep is one column's record of one interval: the configuration it ran
// under, the drain stall cycles of the resize that preceded it (zero when
// the column did not switch) and the interval's core outcome. It holds no
// clock state; Race replays the clock over it.
type raceStep struct {
	cycles, issued, drain int64
	cfg                   int
}

// raceFamily is the memoized computation behind Race: a live lockstep
// MultiCore (one member core per contender) advancing through the shared
// instruction stream, the contenders' own policy instances and monitors, and
// the per-column append-only logs of what each column did. It is a fresh
// full-length race paused at its high-water mark, so every prefix is
// bit-identical to a cold race of that length.
type raceFamily struct {
	mu       sync.Mutex
	mc       *ooo.MultiCore
	stream   workload.InstrSource
	policies []Policy
	mons     []*Monitor
	cur      []int
	drain    []int64 // scratch: this interval's drain cycles per column
	sizes    []int
	cycs     []float64
	n        int64
	done     int64
	// err is a deterministic failure (a policy selecting a configuration
	// outside the menu) at interval done: the family cannot be extended
	// past it, and every caller asking for more intervals gets it.
	err error
	log [][]raceStep // [column][interval]
}

// raceFamilies memoizes race families per raceKey. Creation is cheap and
// runs inside the memo; extension runs under the family's own mutex, so a
// cancelled extension never poisons the memo entry.
var raceFamilies memo.Memo[string, *raceFamily]

// rosterKey encodes a contender roster by content (memo.Key): every
// policy's type and fields — tunables and internal state alike — so a
// changed tunable, or an instance that has already run, is a different
// roster. It reports false when the content would not identify the race:
// a nil policy, a policy memo.Key cannot encode (a closure or channel), or
// one instance raced in two columns, which shares state that two equal
// instances would not. Such rosters race in a private, unshared family.
func rosterKey(specs []PolicySpec) (string, bool) {
	seen := make(map[uintptr]bool, len(specs))
	for _, s := range specs {
		if s.Policy == nil {
			return "", false
		}
		if v := reflect.ValueOf(s.Policy); v.Kind() == reflect.Pointer {
			if v.IsNil() || seen[v.Pointer()] {
				return "", false
			}
			seen[v.Pointer()] = true
		}
	}
	return memo.Key(specs)
}

// raceFamilyFor returns the (possibly already advanced) race family of the
// roster on this engine's application and menu. On a miss the new family
// takes ownership of the specs' policy instances.
func (mp *MultiPolicy) raceFamilyFor(specs []PolicySpec) (*raceFamily, error) {
	key, ok := mp.raceKey(specs)
	if !ok {
		return mp.newRaceFamily(specs)
	}
	return raceFamilies.Do(key, func() (*raceFamily, error) { return mp.newRaceFamily(specs) })
}

// newRaceFamily builds a race family at interval 0: every column a core at
// the menu's first size (the interval-driver convention), with a monitor on
// configuration 0.
func (mp *MultiPolicy) newRaceFamily(specs []PolicySpec) (*raceFamily, error) {
	cfgs := make([]ooo.Config, len(specs))
	f := &raceFamily{
		stream:   trace.OpsFor(mp.b, mp.seed).Cursor(),
		policies: make([]Policy, len(specs)),
		mons:     make([]*Monitor, len(specs)),
		cur:      make([]int, len(specs)),
		drain:    make([]int64, len(specs)),
		sizes:    mp.sizes,
		cycs:     mp.cycs,
		n:        mp.n,
		log:      make([][]raceStep, len(specs)),
	}
	for j, s := range specs {
		cfgs[j] = ooo.PaperConfig(mp.sizes[0])
		f.policies[j] = s.Policy
		f.mons[j] = NewMonitor(64)
	}
	mc, err := ooo.NewMultiCore(cfgs)
	if err != nil {
		return nil, err
	}
	f.mc = mc
	return f, nil
}

// extendTo races the family to at least `intervals` logged intervals: per
// interval, each column consults its policy and performs its own resize,
// then a single RunEach round advances every column together. Member cores
// consume the stream exactly as private machines would, and resizes between
// rounds reproduce private-machine behaviour (see ooo.MultiCore.Cores).
// Each monitor sample's TPI is float64(cycles) × period / issued — the
// operation clock.Advance performs, so policies see the values a private
// QueueMachine would show them. Partial progress is kept on cancellation —
// the family stays consistent at whatever interval count it reached.
// Callers must hold f.mu.
func (f *raceFamily) extendTo(ctx context.Context, intervals int64) error {
	cores := f.mc.Cores()
	for f.done < intervals {
		if f.err != nil {
			return f.err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		for j, p := range f.policies {
			f.drain[j] = 0
			want := p.Next(f.mons[j])
			if want == f.cur[j] {
				continue
			}
			if want < 0 || want >= len(f.sizes) {
				f.err = fmt.Errorf("core: policy %q selected config %d outside [0,%d)", p.Name(), want, len(f.sizes))
				return f.err
			}
			before := cores[j].Stats().DrainStalls
			if err := cores[j].Resize(f.sizes[want]); err != nil {
				f.err = err
				return err
			}
			f.drain[j] = cores[j].Stats().DrainStalls - before
			f.cur[j] = want
		}
		for j, st := range f.mc.RunEach(f.stream, f.n) {
			c := f.cur[j]
			f.log[j] = append(f.log[j], raceStep{cycles: st.Cycles, issued: st.Issued, drain: f.drain[j], cfg: c})
			f.mons[j].Record(Sample{
				Interval: f.done,
				Config:   c,
				TPI:      float64(st.Cycles) * f.cycs[c] / float64(st.Issued),
				IPC:      st.IPC(),
			})
		}
		f.done++
		obsRaceSimCells.Add(int64(len(f.policies)))
	}
	return nil
}

// steps extends the family to `intervals` and returns each column's log
// prefix. Views, not copies: entries below the high-water mark are never
// rewritten — a later extension appends past them, reallocating into a new
// array at most — so the prefixes stay valid once the lock drops. The
// capacity is clipped so a caller's append cannot reach the shared array.
func (f *raceFamily) steps(ctx context.Context, intervals int64) ([][]raceStep, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.extendTo(ctx, intervals); err != nil {
		return nil, err
	}
	out := make([][]raceStep, len(f.log))
	for j, l := range f.log {
		out[j] = l[:intervals:intervals]
	}
	f.mc.PublishObs()
	return out, nil
}

// Package bpred implements a complexity-adaptive branch predictor table,
// the other structure the CAP paper singles out for future
// complexity-adaptive treatment (Sections 4.2 and 7). The predictor is a
// gshare-style table of two-bit saturating counters whose *active* size is a
// power of two between the minimum and the built size: a larger table
// suffers less aliasing (higher prediction accuracy, higher IPC) but its
// longer wordlines and decode stretch the cycle, exactly the IPC/clock-rate
// tradeoff of the paper's cache and queue structures.
//
// The table is physically built at maximum size; the active size sets the
// number of index bits in use. The ablation evaluates every active size in
// one pass over the branch stream (Multi).
package bpred

import (
	"fmt"
	"math"

	"capsim/internal/rng"
	"capsim/internal/tech"
)

// Params describes the adaptive predictor.
type Params struct {
	// MaxEntries is the built table size (power of two).
	MaxEntries int
	// MinEntries is the smallest selectable active size (power of two).
	MinEntries int
	// HistoryBits is the global-history length XORed into the index.
	HistoryBits int
	// MispredictCycles is the pipeline refill penalty.
	MispredictCycles int
	// Feature selects the process generation for timing.
	Feature tech.FeatureSize
}

// DefaultParams returns a 1K-16K-entry gshare with 10 history bits and an
// 8-cycle misprediction penalty.
func DefaultParams() Params {
	return Params{
		MaxEntries:       16 * 1024,
		MinEntries:       1024,
		HistoryBits:      4,
		MispredictCycles: 8,
		Feature:          tech.Micron018,
	}
}

// Validate reports whether the parameters are consistent.
func (p Params) Validate() error {
	switch {
	case p.MaxEntries < 2 || p.MaxEntries&(p.MaxEntries-1) != 0:
		return fmt.Errorf("bpred: max entries %d must be a power of two >= 2", p.MaxEntries)
	case p.MinEntries < 2 || p.MinEntries&(p.MinEntries-1) != 0:
		return fmt.Errorf("bpred: min entries %d must be a power of two >= 2", p.MinEntries)
	case p.MinEntries > p.MaxEntries:
		return fmt.Errorf("bpred: min %d exceeds max %d", p.MinEntries, p.MaxEntries)
	case p.HistoryBits < 0 || p.HistoryBits > 24:
		return fmt.Errorf("bpred: history bits %d out of range", p.HistoryBits)
	case p.MispredictCycles < 1:
		return fmt.Errorf("bpred: mispredict cycles %d must be >= 1", p.MispredictCycles)
	}
	return tech.CheckFeature("bpred", p.Feature)
}

// Sizes enumerates the selectable active sizes, smallest first.
func (p Params) Sizes() []int {
	var out []int
	for n := p.MinEntries; n <= p.MaxEntries; n *= 2 {
		out = append(out, n)
	}
	return out
}

// Stats accumulates prediction outcomes.
type Stats struct {
	Branches    uint64
	Mispredicts uint64
}

// Multi evaluates several active sizes of the adaptive predictor over one
// branch stream. The global history depends only on branch outcomes, so it
// is the same at every size and Multi keeps one; each size keeps its own
// table, indexed under its own mask. Stepping a Multi is therefore exactly
// stepping one independent predictor per size over the same stream, without
// regenerating the stream per size.
type Multi struct {
	p           Params
	tables      [][]uint8 // per size: 2-bit counters, initialized weakly taken
	masks       []uint64  // per size: active entries - 1
	history     uint64
	branches    uint64
	mispredicts []uint64
}

// NewMulti builds a predictor for each of the given active sizes.
func NewMulti(p Params, sizes []int) (*Multi, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Multi{p: p, mispredicts: make([]uint64, len(sizes))}
	for _, active := range sizes {
		if err := checkActive(p, active); err != nil {
			return nil, err
		}
		t := make([]uint8, active)
		for i := range t {
			t[i] = 2 // weakly taken
		}
		m.tables = append(m.tables, t)
		m.masks = append(m.masks, uint64(active-1))
	}
	return m, nil
}

func checkActive(p Params, active int) error {
	if active < p.MinEntries || active > p.MaxEntries || active&(active-1) != 0 {
		return fmt.Errorf("bpred: active size %d not a power of two in [%d,%d]",
			active, p.MinEntries, p.MaxEntries)
	}
	return nil
}

// Stats returns each size's accumulated statistics, in NewMulti's order.
func (m *Multi) Stats() []Stats {
	out := make([]Stats, len(m.mispredicts))
	for i, n := range m.mispredicts {
		out[i] = Stats{Branches: m.branches, Mispredicts: n}
	}
	return out
}

// ResetStats zeroes counters, keeping table state and history.
func (m *Multi) ResetStats() {
	m.branches = 0
	clear(m.mispredicts)
}

// counterNext is the 2-bit saturating counter's transition, indexed
// counter<<1 | taken: a taken branch counts up to 3, a not-taken one down
// to 0.
var counterNext = [8]uint8{0, 1, 0, 2, 1, 3, 2, 3}

// Predict predicts the branch at pc at every size, records the actual
// outcome, and updates each size's counter and the shared global history.
// The gshare index folds the PC and the history into each active table. A
// counter predicts taken when its high bit is set; the update is a table
// lookup, so no step depends on a hard-to-predict branch.
func (m *Multi) Predict(pc uint64, taken bool) {
	h := m.history & ((1 << uint(m.p.HistoryBits)) - 1)
	x := pc>>2 ^ h
	t := b2u(taken)
	m.branches++
	for s, tbl := range m.tables {
		c := &tbl[x&m.masks[s]]
		m.mispredicts[s] += uint64(*c>>1) ^ t
		*c = counterNext[*c<<1|uint8(t)]
	}
	m.history = m.history<<1 | t
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// --- Timing ---------------------------------------------------------------

// LookupDelay returns the table's lookup delay in ns for an active size: a
// RAM read whose decode depth grows with log2(entries) and whose bitline
// load grows with the active rows (the repeaters between size increments
// isolate the inactive rows, per the paper's adaptive-structure recipe).
func LookupDelay(active int, tp tech.Params) float64 {
	// Subarray-partitioned SRAM: decode deepens with log2(rows) and the
	// active wordline/bitline load adds a weak sqrt term.
	rows := float64(active) / 8 // 8 counters per row
	return tp.GateDelayFO4 * (1.0 + 0.10*math.Log2(rows) + 0.002*math.Sqrt(rows))
}

// Evaluate returns the average per-branch time in ns for an active size
// given measured statistics: every branch pays the lookup-limited cycle;
// mispredictions add the refill penalty.
func Evaluate(p Params, active int, s Stats) float64 {
	tp := tech.ForFeature(p.Feature)
	cyc := LookupDelay(active, tp)
	if s.Branches == 0 {
		return cyc
	}
	cycles := float64(s.Branches) + float64(s.Mispredicts)*float64(p.MispredictCycles)
	return cyc * cycles / float64(s.Branches)
}

// --- Synthetic branch workload --------------------------------------------

// BranchGen produces a synthetic branch stream with a configurable static
// branch population: each static branch has a bias, and a fraction follow a
// short repeating pattern that global history can capture. Aliasing pressure
// (and therefore the benefit of a larger table) grows with the number of
// static branches.
type BranchGen struct {
	src      *rng.Source
	pcs      []uint64
	bias     []float64
	loopy    []bool
	phase    []int
	loopLens []int
}

// NewBranchGen builds a generator with `static` distinct branches; loopFrac
// of them follow deterministic short loops.
func NewBranchGen(seed uint64, static int, loopFrac float64) *BranchGen {
	if static < 1 {
		static = 1
	}
	src := rng.New(rng.DeriveSeed(seed, "bpred"))
	g := &BranchGen{
		src:      src,
		pcs:      make([]uint64, static),
		bias:     make([]float64, static),
		loopy:    make([]bool, static),
		phase:    make([]int, static),
		loopLens: make([]int, static),
	}
	for i := range g.pcs {
		g.pcs[i] = uint64(0x400000 + i*64)
		g.bias[i] = 0.5 + 0.45*src.Float64()
		if src.Bool(0.5) {
			g.bias[i] = 1 - g.bias[i]
		}
		g.loopy[i] = src.Bool(loopFrac)
		g.loopLens[i] = 3 + src.Intn(6)
	}
	return g
}

// Next returns the next (pc, taken) pair.
func (g *BranchGen) Next() (uint64, bool) {
	i := g.src.Intn(len(g.pcs))
	if g.loopy[i] {
		g.phase[i]++
		// Loop-closing branch: taken for loopLen-1 iterations, then
		// falls through.
		taken := g.phase[i]%g.loopLens[i] != 0
		return g.pcs[i], taken
	}
	return g.pcs[i], g.src.Bool(g.bias[i])
}

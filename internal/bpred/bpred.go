// Package bpred implements a complexity-adaptive branch predictor table,
// the other structure the CAP paper singles out for future
// complexity-adaptive treatment (Sections 4.2 and 7). The predictor is a
// gshare-style table of two-bit saturating counters whose *active* size can
// be changed at runtime in power-of-two steps: a larger table suffers less
// aliasing (higher prediction accuracy, higher IPC) but its longer wordlines
// and decode stretch the cycle, exactly the IPC/clock-rate tradeoff of the
// paper's cache and queue structures.
//
// Resizing keeps the table physically built at maximum size and changes only
// the number of index bits in use, so growing or shrinking needs no flash
// clear: shrinking folds the large table onto its lower half (counters
// retrain quickly); growing exposes counters that retain their last values
// — the paper's "cleanup operations are simple and have low enough
// overhead" observation holds here too.
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
	case !p.Feature.Valid():
		return fmt.Errorf("bpred: feature size %v must be finite and positive", float64(p.Feature))
	}
	return nil
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

// MispredictRate returns mispredictions per branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// Predictor is the runtime state.
type Predictor struct {
	p       Params
	table   []uint8 // 2-bit counters, initialized weakly taken
	active  int     // active entries (power of two)
	history uint64
	stats   Stats
}

// New builds the predictor with the given active size.
func New(p Params, active int) (*Predictor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkActive(p, active); err != nil {
		return nil, err
	}
	t := make([]uint8, p.MaxEntries)
	for i := range t {
		t[i] = 2 // weakly taken
	}
	return &Predictor{p: p, table: t, active: active}, nil
}

// MustNew is New but panics on error.
func MustNew(p Params, active int) *Predictor {
	pr, err := New(p, active)
	if err != nil {
		panic(err)
	}
	return pr
}

func checkActive(p Params, active int) error {
	if active < p.MinEntries || active > p.MaxEntries || active&(active-1) != 0 {
		return fmt.Errorf("bpred: active size %d not a power of two in [%d,%d]",
			active, p.MinEntries, p.MaxEntries)
	}
	return nil
}

// Active returns the active table size.
func (pr *Predictor) Active() int { return pr.active }

// Stats returns accumulated statistics.
func (pr *Predictor) Stats() Stats { return pr.stats }

// ResetStats zeroes counters, keeping table state.
func (pr *Predictor) ResetStats() { pr.stats = Stats{} }

// Resize changes the active size; table contents persist (the smaller table
// is the lower slice of the larger one).
func (pr *Predictor) Resize(active int) error {
	if err := checkActive(pr.p, active); err != nil {
		return err
	}
	pr.active = active
	return nil
}

// index folds the PC and global history into the active table.
func (pr *Predictor) index(pc uint64) int {
	h := pr.history & ((1 << uint(pr.p.HistoryBits)) - 1)
	return int((pc>>2 ^ h) & uint64(pr.active-1))
}

// Predict returns the predicted direction for the branch at pc and records
// the actual outcome, updating the counter and global history.
func (pr *Predictor) Predict(pc uint64, taken bool) bool {
	i := pr.index(pc)
	pred := pr.table[i] >= 2
	pr.stats.Branches++
	if pred != taken {
		pr.stats.Mispredicts++
	}
	if taken {
		if pr.table[i] < 3 {
			pr.table[i]++
		}
	} else if pr.table[i] > 0 {
		pr.table[i]--
	}
	pr.history = pr.history<<1 | b2u(taken)
	return pred
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

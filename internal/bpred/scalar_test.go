package bpred

import (
	"testing"
)

// Predictor is one active size of the adaptive predictor with its own
// history: the scalar reference Multi is checked against
// (TestMultiMatchesScalar), and the engine the single-size tests below drive.
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

// Stats returns accumulated statistics.
func (pr *Predictor) Stats() Stats { return pr.stats }

// ResetStats zeroes counters, keeping table state.
func (pr *Predictor) ResetStats() { pr.stats = Stats{} }

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

// TestMultiMatchesScalar: a Multi over every active size equals one
// independent scalar Predictor per size on the same stream — per-size
// statistics after every branch (so every single prediction agrees), across
// a stats reset, and the final table contents — over geometries that vary
// the history length (none, the default, longer than the smallest index)
// and the static population (none aliased, heavily aliased).
func TestMultiMatchesScalar(t *testing.T) {
	small := Params{MaxEntries: 64, MinEntries: 2, HistoryBits: 7, MispredictCycles: 3, Feature: DefaultParams().Feature}
	noHist := DefaultParams()
	noHist.HistoryBits = 0
	for _, tc := range []struct {
		name   string
		p      Params
		static int
		loop   float64
	}{
		{"default/200", DefaultParams(), 200, 0.3},
		{"default/3200", DefaultParams(), 3200, 0.3},
		{"nohistory/800", noHist, 800, 0.5},
		{"small/300", small, 300, 0.3},
		{"small/loops", small, 40, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sizes := tc.p.Sizes()
			m, err := NewMulti(tc.p, sizes)
			if err != nil {
				t.Fatal(err)
			}
			scalar := make([]*Predictor, len(sizes))
			for i, n := range sizes {
				scalar[i] = MustNew(tc.p, n)
			}
			g := NewBranchGen(11, tc.static, tc.loop)
			for j := 0; j < 30000; j++ {
				if j == 10000 {
					m.ResetStats()
					for _, pr := range scalar {
						pr.ResetStats()
					}
				}
				pc, taken := g.Next()
				m.Predict(pc, taken)
				got := m.Stats()
				for i, pr := range scalar {
					pr.Predict(pc, taken)
					if got[i] != pr.Stats() {
						t.Fatalf("branch %d size %d: Multi %+v, scalar %+v", j, sizes[i], got[i], pr.Stats())
					}
				}
			}
			for i, pr := range scalar {
				for k, c := range m.tables[i] {
					if c != pr.table[k] {
						t.Fatalf("size %d: counter %d is %d, scalar %d", sizes[i], k, c, pr.table[k])
					}
				}
				if m.history != pr.history {
					t.Fatalf("size %d: history %#x, scalar %#x", sizes[i], m.history, pr.history)
				}
			}
		})
	}
}

package flight

import (
	"fmt"
	"sort"
	"sync"

	"capsim/internal/metrics"
)

// This file is the league-analytics layer shared by `capsim -report` and
// the zoo experiment driver: both reduce run columns to RunSummary values
// and render the same three tables through the same builders, which is what
// makes the experiment's league table byte-for-byte reproducible from its
// own ledger. Summaries carry everything the tables need (ends, residency,
// max regret) so the experiment tier can persist them in study rows and
// re-render from a warm cache without the event columns.

// RunSummary is the per-run reduction the league tables are built from.
type RunSummary struct {
	Meta RunMeta
	End  RunEnd
	// MaxRegretNS is the worst single-interval regret observed.
	MaxRegretNS float64
	// Residency counts intervals spent at each config.
	Residency map[int]int64
	// SizeOf labels each resident config with its queue size.
	SizeOf map[int]int
}

// Summarize reduces one run column to its league summary.
func Summarize(meta RunMeta, events []Event, end RunEnd) RunSummary {
	s := RunSummary{
		Meta:      meta,
		End:       end,
		Residency: make(map[int]int64, len(meta.Sizes)),
		SizeOf:    make(map[int]int, len(meta.Sizes)),
	}
	for _, ev := range events {
		s.Residency[ev.Config]++
		s.SizeOf[ev.Config] = ev.Size
		if ev.RegretNS > s.MaxRegretNS {
			s.MaxRegretNS = ev.RegretNS
		}
	}
	return s
}

// SummaryKey dedups run columns across sources: re-recording the same study
// appends identical columns, and a report must count each once. Runs of the
// same study at different seeds are different columns.
func SummaryKey(s RunSummary) string {
	m := s.Meta
	return fmt.Sprintf("%s|%d|%v|%d|%d|%s|%s|%d", m.App, m.Seed, m.Sizes, m.N, m.Penalty, m.Policy, m.Kind, s.End.Intervals)
}

// SortRunSummaries orders summaries by the league's TOTAL order: app, then
// total regret (the oracle, at zero, leads by construction), then penalty,
// kind, policy, interval count and seed as deterministic tie-breaks. A total
// order is load-bearing: ledger file order depends on sweep scheduling, and
// byte-identical renders at any worker/shard count require the sort alone
// to fix the row sequence.
func SortRunSummaries(rs []RunSummary) {
	sort.SliceStable(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Meta.App != b.Meta.App {
			return a.Meta.App < b.Meta.App
		}
		if a.End.CumRegretNS != b.End.CumRegretNS {
			return a.End.CumRegretNS < b.End.CumRegretNS
		}
		if a.Meta.Penalty != b.Meta.Penalty {
			return a.Meta.Penalty < b.Meta.Penalty
		}
		if a.Meta.Kind != b.Meta.Kind {
			return a.Meta.Kind < b.Meta.Kind
		}
		if a.Meta.Policy != b.Meta.Policy {
			return a.Meta.Policy < b.Meta.Policy
		}
		if a.End.Intervals != b.End.Intervals {
			return a.End.Intervals < b.End.Intervals
		}
		return a.Meta.Seed < b.Meta.Seed
	})
}

// LeagueTable renders the per-app policy league: every run ranked by total
// regret vs the oracle, with mean and worst-interval regret, switch counts,
// and the penalty point it was charged under.
func LeagueTable(runs []RunSummary) metrics.Table {
	t := metrics.Table{
		ID:      "league",
		Title:   "policy league table (ranked by total regret vs oracle)",
		Columns: []string{"app", "policy", "kind", "pen", "intervals", "tpi_ns", "switches", "regret_ns/iv", "max_regret_ns", "total_regret_ns"},
	}
	for _, r := range runs {
		perIV := 0.0
		if r.End.Intervals > 0 {
			perIV = r.End.CumRegretNS / float64(r.End.Intervals)
		}
		t.Rows = append(t.Rows, []string{
			r.Meta.App, r.Meta.Policy, r.Meta.Kind, fmt.Sprint(r.Meta.Penalty),
			fmt.Sprint(r.End.Intervals), metrics.F(r.End.TPI),
			fmt.Sprint(r.End.Switches), metrics.F(perIV),
			metrics.F(r.MaxRegretNS), metrics.F(r.End.CumRegretNS),
		})
	}
	return t
}

// DwellTable renders adaptation dynamics per run. Dwell is the mean run
// length at one configuration (intervals per switch+1); residency names the
// configuration holding the most intervals.
func DwellTable(runs []RunSummary) metrics.Table {
	t := metrics.Table{
		ID:      "dwell",
		Title:   "switch rate and dwell time",
		Columns: []string{"app", "policy", "kind", "pen", "switches/1k_iv", "mean_dwell_iv", "top_cfg", "top_cfg_share"},
	}
	for _, r := range runs {
		if r.End.Intervals == 0 {
			continue
		}
		rate := 1000 * float64(r.End.Switches) / float64(r.End.Intervals)
		md := float64(r.End.Intervals) / float64(r.End.Switches+1)
		top, topN := 0, int64(-1)
		for cfg, n := range r.Residency {
			if n > topN || (n == topN && cfg < top) {
				top, topN = cfg, n
			}
		}
		label, share := "-", 0.0
		if topN >= 0 {
			label = fmt.Sprintf("IQ=%d", r.SizeOf[top])
			share = float64(topN) / float64(r.End.Intervals)
		}
		t.Rows = append(t.Rows, []string{
			r.Meta.App, r.Meta.Policy, r.Meta.Kind, fmt.Sprint(r.Meta.Penalty),
			metrics.F(rate), metrics.F(md), label, metrics.Pct(share),
		})
	}
	return t
}

// PolicySummaryTable renders the cross-app view: one row per policy/kind,
// averaging regret-per-interval over every run it appears in — the league
// table's single-number ranking.
func PolicySummaryTable(runs []RunSummary) metrics.Table {
	type agg struct {
		policy, kind string
		perIV        []float64
	}
	byPolicy := map[string]*agg{}
	var polOrder []string
	for _, r := range runs {
		if r.End.Intervals == 0 {
			continue
		}
		k := r.Meta.Policy + "|" + r.Meta.Kind
		a := byPolicy[k]
		if a == nil {
			a = &agg{policy: r.Meta.Policy, kind: r.Meta.Kind}
			byPolicy[k] = a
			polOrder = append(polOrder, k)
		}
		a.perIV = append(a.perIV, r.End.CumRegretNS/float64(r.End.Intervals))
	}
	sort.SliceStable(polOrder, func(i, j int) bool {
		mi, mj := metrics.Mean(byPolicy[polOrder[i]].perIV), metrics.Mean(byPolicy[polOrder[j]].perIV)
		if mi != mj {
			return mi < mj
		}
		return polOrder[i] < polOrder[j]
	})
	t := metrics.Table{
		ID:      "summary",
		Title:   "cross-app policy summary (mean regret per interval)",
		Columns: []string{"policy", "kind", "runs", "mean_regret_ns/iv"},
	}
	for _, k := range polOrder {
		a := byPolicy[k]
		t.Rows = append(t.Rows, []string{
			a.policy, a.kind, fmt.Sprint(len(a.perIV)), metrics.F(metrics.Mean(a.perIV)),
		})
	}
	return t
}

// LeagueReport renders the three league tables from pre-deduplicated
// summaries, sorting them into the total order first. It is the single
// rendering path behind both `capsim -report` and the zoo experiment.
func LeagueReport(runs []RunSummary) []metrics.Table {
	SortRunSummaries(runs)
	return []metrics.Table{LeagueTable(runs), DwellTable(runs), PolicySummaryTable(runs)}
}

// Capture is an in-memory Sink reducing every published run to its
// RunSummary as it arrives — the zoo driver's private collector target, so
// experiment rows carry league data without retaining event columns.
type Capture struct {
	mu   sync.Mutex
	runs []RunSummary
}

// NewCapture returns an empty capture sink.
func NewCapture() *Capture { return &Capture{} }

// WriteRun implements Sink.
func (c *Capture) WriteRun(run int64, meta RunMeta, events []Event, end RunEnd) error {
	s := Summarize(meta, events, end)
	c.mu.Lock()
	c.runs = append(c.runs, s)
	c.mu.Unlock()
	return nil
}

// WriteProgress implements Sink.
func (c *Capture) WriteProgress(Progress) error { return nil }

// Summaries returns the captured run summaries in publication order.
func (c *Capture) Summaries() []RunSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RunSummary, len(c.runs))
	copy(out, c.runs)
	return out
}

package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"capsim/internal/metrics"
	"capsim/internal/tech"
)

// fastConfig returns a reduced-budget configuration for tests.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.CacheWarmRefs = 20_000
	cfg.CacheRefs = 80_000
	cfg.QueueInstrs = 25_000
	return cfg
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1a", "fig1b", "fig2", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13",
		"ablation-interval", "ablation-switch", "ablation-increment", "ablation-power",
		"ablation-tlb", "ablation-bpred", "ablation-combined",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	for _, id := range IDs() {
		if title, err := Title(id); err != nil || title == "" {
			t.Errorf("%s: bad title (%v)", id, err)
		}
	}
	if _, err := Title("nope"); err == nil {
		t.Error("unknown title accepted")
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", fastConfig()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := fastConfig()
	cfg.CacheRefs = 10
	if _, err := Run("fig1a", cfg); err == nil {
		t.Error("tiny cache budget accepted")
	}
	// The queue studies read Feature and the cache studies
	// CacheParams.Feature: one study at two generations is rejected.
	cfg = fastConfig()
	cfg.Feature = tech.Micron012
	if err := cfg.Validate(); err == nil {
		t.Errorf("Feature %v with CacheParams.Feature %v accepted", cfg.Feature, cfg.CacheParams.Feature)
	}
	cfg.CacheParams.Feature = cfg.Feature
	if err := cfg.Validate(); err != nil {
		t.Errorf("matching feature sizes rejected: %v", err)
	}
}

func TestWireFigures(t *testing.T) {
	for _, id := range []string{"fig1a", "fig1b", "fig2"} {
		res, err := Run(id, fastConfig())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Figures) != 1 {
			t.Fatalf("%s: %d figures", id, len(res.Figures))
		}
		fig := res.Figures[0]
		if len(fig.Series) != 4 { // unbuffered + 3 generations
			t.Fatalf("%s: %d series", id, len(fig.Series))
		}
		un := fig.Series[0]
		// Unbuffered curve grows superlinearly.
		n := len(un.Y)
		if un.Y[n-1] <= un.Y[0]*float64(n) {
			t.Errorf("%s: unbuffered curve not superlinear: %v", id, un.Y)
		}
		// Buffered curves are ordered by feature size at the largest X
		// (smaller feature = faster devices).
		last := func(s metrics.Series) float64 { return s.Y[len(s.Y)-1] }
		if !(last(fig.Series[1]) > last(fig.Series[2]) && last(fig.Series[2]) > last(fig.Series[3])) {
			t.Errorf("%s: buffered curves not ordered by generation", id)
		}
		// At the largest size every generation's buffering must win.
		if last(fig.Series[2]) >= last(un) {
			t.Errorf("%s: 0.18u buffering loses at max size", id)
		}
		if len(res.Notes) == 0 {
			t.Errorf("%s: no crossover notes", id)
		}
		if !strings.Contains(res.Render(), fig.ID) {
			t.Errorf("%s: render missing figure id", id)
		}
	}
}

func TestFig1aCrossoverMatchesPaper(t *testing.T) {
	// Paper Section 2: with 2KB subarrays at 0.18 micron, caches of 16KB
	// (8 arrays) and larger benefit from buffering.
	res, err := Run("fig1a", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figures[0]
	un, b18 := fig.Series[0], fig.Series[2]
	if !strings.Contains(b18.Name, "0.18") {
		t.Fatalf("series order changed: %s", b18.Name)
	}
	for i, x := range un.X {
		buffered := b18.Y[i] < un.Y[i]
		if x <= 6 && buffered {
			t.Errorf("0.18u buffering already wins at %v arrays", x)
		}
		if x >= 10 && !buffered {
			t.Errorf("0.18u buffering still loses at %v arrays", x)
		}
	}
}

func TestCacheFigures(t *testing.T) {
	cfg := fastConfig()
	res7, err := Run("fig7", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res7.Figures) != 2 {
		t.Fatalf("fig7 panels: %d", len(res7.Figures))
	}
	ints, fps := res7.Figures[0], res7.Figures[1]
	if len(ints.Series) != 7 { // 8 SPECint minus go
		t.Errorf("fig7a has %d series, want 7", len(ints.Series))
	}
	if len(fps.Series) != 14 {
		t.Errorf("fig7b has %d series, want 14", len(fps.Series))
	}
	for _, s := range append(ints.Series, fps.Series...) {
		if len(s.X) != 8 {
			t.Fatalf("%s: %d points", s.Name, len(s.X))
		}
		if s.X[0] != 8 || s.X[7] != 64 {
			t.Fatalf("%s: L1 sizes %v", s.Name, s.X)
		}
		for _, y := range s.Y {
			if y <= 0 || y > 5 {
				t.Fatalf("%s: implausible TPI %v", s.Name, y)
			}
		}
	}

	res9, err := Run("fig9", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := res9.Tables[0]
	if len(tab.Rows) != 22 { // 21 apps + average
		t.Fatalf("fig9 rows: %d", len(tab.Rows))
	}
	if tab.Rows[21][0] != "average" {
		t.Errorf("last row %v", tab.Rows[21])
	}

	res8, err := Run("fig8", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res8.Tables[0].Rows) != 22 {
		t.Fatalf("fig8 rows: %d", len(res8.Tables[0].Rows))
	}
}

// reductions returns each application's TPI reduction from the
// conventional configuration to its own best, by name.
func reductions(s *study) map[string]float64 {
	out := map[string]float64{}
	for a, b := range s.apps {
		out[b.Name] = metrics.Reduction(s.tpi[a][s.conv], s.tpi[a][s.best(a)])
	}
	return out
}

func TestCacheHeadlineShape(t *testing.T) {
	// The adaptive scheme must never lose to the conventional baseline
	// (it can always pick the baseline), and stereo must be among the big
	// winners (paper: 46%).
	s, err := runCacheStudy(context.Background(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	red := reductions(s)
	for app, r := range red {
		if r < 0 {
			t.Errorf("%s: adaptive lost to conventional (reduction %.4f)", app, r)
		}
	}
	if r := red["stereo"]; r < 0.40 || r >= 0.70 {
		t.Errorf("stereo TPI reduction %.4f, want [0.40, 0.70) (paper: 0.46)", r)
	}
}

func TestQueueFigures(t *testing.T) {
	cfg := fastConfig()
	res10, err := Run("fig10", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res10.Figures) != 2 {
		t.Fatalf("fig10 panels: %d", len(res10.Figures))
	}
	if n := len(res10.Figures[0].Series); n != 8 { // 8 SPECint
		t.Errorf("fig10a series %d, want 8", n)
	}
	if n := len(res10.Figures[1].Series); n != 14 {
		t.Errorf("fig10b series %d, want 14", n)
	}

	res11, err := Run("fig11", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := res11.Tables[0]
	if len(tab.Rows) != 23 { // 22 apps + average
		t.Fatalf("fig11 rows: %d", len(tab.Rows))
	}
	s, err := runQueueStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	red := reductions(s)
	for app, r := range red {
		if r < 0 {
			t.Errorf("%s: adaptive lost to conventional (reduction %.4f)", app, r)
		}
	}
	// The paper's biggest queue winners (appcg 28%, fpppp 21%, radar 10%).
	for _, app := range []string{"appcg", "fpppp", "radar"} {
		if r := red[app]; r < 0.05 {
			t.Errorf("%s shows no adaptive gain (reduction %.4f)", app, r)
		}
	}
}

func TestIntervalFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("interval snapshots are slow")
	}
	cfg := fastConfig()
	res12, err := Run("fig12", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res12.Figures) != 2 || len(res12.Notes) != 2 {
		t.Fatalf("fig12 shape: %d figures %d notes", len(res12.Figures), len(res12.Notes))
	}
	// Snapshot (a) is in the 64-favouring phase, (b) in the 128 phase.
	if !strings.Contains(res12.Notes[0], "64 wins") {
		t.Errorf("fig12(a): %s", res12.Notes[0])
	}
	if !strings.Contains(res12.Notes[1], "128 wins") {
		t.Errorf("fig12(b): %s", res12.Notes[1])
	}

	res13, err := Run("fig13", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res13.Figures) != 2 {
		t.Fatalf("fig13 figures: %d", len(res13.Figures))
	}
	// The irregular snapshot flips frequently.
	if !strings.Contains(res13.Notes[1], "flips") {
		t.Errorf("fig13(b): %s", res13.Notes[1])
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	cfg := fastConfig()
	for _, id := range []string{"ablation-switch", "ablation-increment", "ablation-power", "ablation-tlb", "ablation-bpred"} {
		res, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Figures)+len(res.Tables) == 0 {
			t.Errorf("%s: empty result", id)
		}
	}
}

func TestAblationIntervalOracleBound(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, err := Run("ablation-interval", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	for _, row := range tab.Rows {
		var fixed, adaptive, oracle float64
		if _, err := sscan(row[2], &fixed); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[3], &adaptive); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[4], &oracle); err != nil {
			t.Fatal(err)
		}
		// The oracle (no switch costs, perfect prediction) lower-bounds
		// everything; the adaptive policy must not be wildly worse than
		// the best fixed configuration.
		if oracle > fixed+1e-9 {
			t.Errorf("%s: oracle %v worse than best fixed %v", row[0], oracle, fixed)
		}
		if adaptive > fixed*1.15 {
			t.Errorf("%s: interval policy %v much worse than fixed %v", row[0], adaptive, fixed)
		}
	}
}

func sscan(s string, f *float64) (int, error) {
	return fmt.Sscan(s, f)
}

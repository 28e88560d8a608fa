package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"capsim/internal/core"
	"capsim/internal/obs"
	"capsim/internal/workload"
)

// TestModelEpochPinsGoldens ties modelEpoch to the pinned renders and
// streams. A change that regenerates any of them changes the model the
// study cache's entries were computed with, so it must also bump the epoch,
// which every row key carries; otherwise a store written by the old binary
// would serve the old numbers.
func TestModelEpochPinsGoldens(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	files = append(files, filepath.Join("..", "workload", "testdata", "streams.golden"))
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(f) + "\x00"))
		h.Write(raw)
		h.Write([]byte{0})
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != modelEpoch {
		t.Errorf("pinned renders or streams changed: set modelEpoch = %q (was %q), so study caches written before the change miss", got, modelEpoch)
	}
}

// keyTestConfig is the smallest budget the key tests render at.
func keyTestConfig() Config {
	cfg := studyCacheTestConfig()
	cfg.CacheWarmRefs = 2_000
	cfg.CacheRefs = 8_000
	return cfg
}

// TestRowsKeyContent: a row is keyed on the content of its inputs, so an
// input that differs from another only where a label or a display format
// would not show it is a different row. For each case, run(false) and
// run(true) go through the production rows for the original and the
// changed input; the changed one must come out as computed from scratch —
// not as the original's numbers — after the original ran in the same
// process, and after it warmed a study cache.
func TestRowsKeyContent(t *testing.T) {
	cfg := keyTestConfig()
	ctx := context.Background()
	vortexSizes, err := intervalCandidates("vortex")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func(changed bool) (any, error)
	}{
		// Two feature sizes that print alike at two decimals ("0.18u").
		{"feature size", func(changed bool) (any, error) {
			c := cfg
			c.Feature = 0.181
			if changed {
				c.Feature = 0.184
			}
			c.CacheParams.Feature = c.Feature
			res, err := Run("fig9", c)
			return res.Render(), err
		}},
		// A same-name copy of an application with one ILP field changed.
		{"profile", func(changed bool) (any, error) {
			b := workload.MustByName("compress")
			if changed {
				b.ILP.Base.SrcWeights[2] += 0.3
			}
			return queueProfiles(ctx, cfg, []workload.Benchmark{b}, core.PaperQueueSizes())
		}},
		// A policy with one tunable changed.
		{"policy tunable", func(changed bool) (any, error) {
			p := &core.IntervalPolicy{Configs: []int{0, 1}}
			if changed {
				p.MinGain = 0.2
			}
			return runIntervalPolicy(ctx, cfg, "vortex", vortexSizes, p, 200)
		}},
	}
	defer SetStudyCacheDir("")
	defer ResetCaches()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(changed bool) any {
				v, err := c.run(changed)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			if err := SetStudyCacheDir(""); err != nil {
				t.Fatal(err)
			}
			ResetCaches()
			want := run(true)
			ResetCaches()
			if reflect.DeepEqual(run(false), want) {
				t.Fatal("the change moves no number; the case shows nothing")
			}
			if got := run(true); !reflect.DeepEqual(got, want) {
				t.Errorf("in process: got %v, want %v", got, want)
			}

			if err := SetStudyCacheDir(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			ResetCaches()
			run(false)
			ResetCaches() // process boundary: only the store carries rows
			if got := run(true); !reflect.DeepEqual(got, want) {
				t.Errorf("through a study cache warmed with the original: got %v, want %v", got, want)
			}
		})
	}
}

// TestCacheRowsSharedAcrossDrivers: without a study cache, fig7,
// ablation-power and ablation-increment in one process run each distinct
// ProfileCacheTPI pass once — fig7's 21 plus ablation-increment's 4
// alternative-design passes; ablation-power and the paper-design half of
// ablation-increment reuse fig7's rows. Every pass replays warm + measured
// references through the one-pass hierarchy, so cache.multi.refs counts
// passes.
func TestCacheRowsSharedAcrossDrivers(t *testing.T) {
	cfg := keyTestConfig()
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	defer ResetCaches()
	ResetCaches()
	s0 := obs.TakeSnapshot()
	for _, id := range []string{"fig7", "ablation-power", "ablation-increment"} {
		if _, err := Run(id, cfg); err != nil {
			t.Fatal(err)
		}
	}
	refs := obs.TakeSnapshot().DiffCounters(s0)["cache.multi.refs"]
	perPass := cfg.CacheWarmRefs + cfg.CacheRefs
	if refs%perPass != 0 || refs/perPass != 25 {
		t.Errorf("cache.multi.refs rose by %d = %.2f passes of %d references, want 25 passes",
			refs, float64(refs)/float64(perPass), perPass)
	}
}

package experiments

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"capsim/internal/obs"
	"capsim/internal/sweep"
)

// shardTestConfig returns the trimmed budgets the shard differential runs
// under — the full registry is rendered once per shard count plus once per
// shard, so this must fit the package budget under -race on one core.
func shardTestConfig() Config {
	cfg := fastConfig()
	cfg.CacheWarmRefs = 5_000
	cfg.CacheRefs = 20_000
	cfg.QueueInstrs = 10_000
	cfg.IntervalInstrs = 400
	return cfg
}

// TestShardMergeByteIdentical is the tentpole acceptance differential: for
// every experiment driver and shard counts {1, 2, 3, 8}, running each shard
// as its own partition (capsim -shard i/N in miniature: sweep.SetShard +
// cold study memos, rows published to a shared persistent store) and then
// merging — a plain unsharded run against the warm store — produces renders
// byte-identical to a never-sharded baseline. ResetStudies between legs
// plays the role of the process boundary; the persistent store is the only
// channel shards share. Run with -race to certify the row layer's memory
// discipline.
func TestShardMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment once per shard plus merges")
	}
	cfg := shardTestConfig()
	defer sweep.ClearShard()
	defer SetStudyCacheDir("")

	renderAll := func(leg string) map[string]string {
		out := map[string]string{}
		for _, id := range IDs() {
			res, err := Run(id, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", leg, id, err)
			}
			out[id] = res.Render()
		}
		return out
	}

	// Baseline: never sharded, no persistent store.
	if err := SetStudyCacheDir(""); err != nil {
		t.Fatal(err)
	}
	ResetCaches()
	want := renderAll("baseline")

	for _, n := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			// Fresh store per shard count: the merge must be reconstructible
			// from this count's own shard runs, not a previous count's.
			if err := SetStudyCacheDir(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			// Shard legs: each computes and publishes only the rows it owns;
			// its render (full of stubs) is discarded, as cmd/capsim does.
			for i := 0; i < n; i++ {
				if err := sweep.SetShard(sweep.Shard{Bucket: i, Of: n}); err != nil {
					t.Fatal(err)
				}
				ResetStudies() // process boundary: study memos must not leak across shards
				for _, id := range IDs() {
					if _, err := Run(id, cfg); err != nil {
						t.Fatalf("shard %d/%d %s: %v", i, n, id, err)
					}
				}
			}
			// Merge: a plain unsharded run against the warm store.
			sweep.ClearShard()
			ResetStudies()
			got := renderAll(fmt.Sprintf("merge after %d shards", n))
			for _, id := range IDs() {
				if got[id] != want[id] {
					t.Errorf("%s: merged render of %d shards differs from single-process render", id, n)
				}
			}
		})
	}
}

// TestPersistentCacheReuseObservable is the warm-cache acceptance check: a
// second cold process (simulated by resetting every in-memory tier) against
// a warm persistent store must reuse the published studies — zero new row
// computes, memo.persist_hits climbing — and render byte-identically.
func TestPersistentCacheReuseObservable(t *testing.T) {
	cfg := shardTestConfig()
	defer SetStudyCacheDir("")
	if err := SetStudyCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	run := func() string {
		res, err := Run("fig10", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Render()
	}

	ResetCaches()
	s0 := obs.TakeSnapshot()
	first := run()
	s1 := obs.TakeSnapshot()
	cold := s1.DiffCounters(s0)
	if cold["memo.persist_writes"] == 0 {
		t.Fatalf("cold run published no rows: %v", cold)
	}
	if cold["memo.persist_hits"] != 0 {
		t.Fatalf("cold run against an empty store claimed persist hits: %v", cold)
	}

	ResetCaches() // process boundary: in-memory memos and trace stores gone
	second := run()
	s2 := obs.TakeSnapshot()
	warm := s2.DiffCounters(s1)
	if warm["memo.persist_hits"] == 0 {
		t.Fatalf("warm run reused nothing: %v", warm)
	}
	if warm["memo.persist_writes"] != 0 {
		t.Errorf("warm run recomputed and republished rows: %v", warm)
	}
	if second != first {
		t.Error("warm-store render differs from cold render")
	}
}

// TestCombinedPersistsOnlyRows pins what a cold ablation-combined run
// writes to the study cache: one entry per application's combinedRow and
// nothing else — the classification streams the joint kernel replays live
// and die inside that row's computation. A warm re-run then renders
// byte-identically without generating a single classification stream.
func TestCombinedPersistsOnlyRows(t *testing.T) {
	cfg := shardTestConfig()
	dir := t.TempDir()
	defer SetStudyCacheDir("")
	if err := SetStudyCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	run := func() string {
		res, err := Run("ablation-combined", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Render()
	}

	ResetCaches()
	cold := run()
	entries, err := filepath.Glob(filepath.Join(StudyCacheDir(), "*", "*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 { // gcc, stereo, appcg, compress, swim
		t.Errorf("cold run wrote %d entries, want one per application (5)", len(entries))
	}
	for _, path := range entries {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// gob matches fields by name, so this decodes just the envelope's key.
		var e struct{ Key string }
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&e); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(e.Key, "combined|") {
			t.Errorf("cold run wrote %q, not a combined row", e.Key)
		}
	}

	ResetCaches() // process boundary
	s0 := obs.TakeSnapshot()
	warm := run()
	if gens := obs.TakeSnapshot().DiffCounters(s0)["classify.gens"]; gens != 0 {
		t.Errorf("warm run generated %d classification streams, want 0", gens)
	}
	if warm != cold {
		t.Error("warm-store render differs from cold render")
	}
}

// TestStudyCacheDirLifecycle: enabling, querying and disabling the
// persistent tier; a bad directory is rejected without replacing the store.
func TestStudyCacheDirLifecycle(t *testing.T) {
	defer SetStudyCacheDir("")
	if StudyCacheDir() != "" {
		t.Fatal("store active before SetStudyCacheDir")
	}
	dir := t.TempDir()
	if err := SetStudyCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if StudyCacheDir() == "" {
		t.Fatal("StudyCacheDir empty after enabling")
	}
	if err := SetStudyCacheDir("/dev/null/not-a-dir"); err == nil {
		t.Error("unusable directory accepted")
	}
	if err := SetStudyCacheDir(""); err != nil {
		t.Fatal(err)
	}
	if StudyCacheDir() != "" {
		t.Fatal("store still active after disabling")
	}
}

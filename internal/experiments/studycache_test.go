package experiments

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"capsim/internal/obs"
)

// studyCacheTestConfig returns the trimmed budgets the study-cache
// differentials run under — the full registry is rendered three times, so
// this must fit the package budget under -race on one core.
func studyCacheTestConfig() Config {
	cfg := fastConfig()
	cfg.CacheWarmRefs = 5_000
	cfg.CacheRefs = 20_000
	cfg.QueueInstrs = 10_000
	cfg.IntervalInstrs = 400
	return cfg
}

// TestStudyCacheByteIdentical: every registered experiment renders
// byte-identically with no study cache, cold into a fresh one, and warm from
// it — and the warm pass computes and writes nothing. ResetCaches between
// passes plays the role of the process boundary, so the persistent store is
// the only channel the passes share; processes running disjoint -experiment
// subsets over one directory rely on exactly this. Run with -race to certify
// the row layer's memory discipline.
func TestStudyCacheByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment three times")
	}
	cfg := studyCacheTestConfig()
	defer SetStudyCacheDir("")
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	renderAll := func(pass string) (map[string]string, map[string]int64) {
		ResetCaches()
		s0 := obs.TakeSnapshot()
		out := map[string]string{}
		for _, id := range IDs() {
			res, err := Run(id, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", pass, id, err)
			}
			out[id] = res.Render()
		}
		return out, obs.TakeSnapshot().DiffCounters(s0)
	}
	compare := func(pass string, got, want map[string]string) {
		for _, id := range IDs() {
			if got[id] != want[id] {
				t.Errorf("%s: %s render differs from the render with no study cache", id, pass)
			}
		}
	}

	if err := SetStudyCacheDir(""); err != nil {
		t.Fatal(err)
	}
	want, _ := renderAll("no cache")

	if err := SetStudyCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	cold, cc := renderAll("cold")
	compare("cold", cold, want)
	// Rows several experiments share hit within the pass; every miss must
	// publish.
	if w := cc["memo.persist_writes"]; w == 0 || w != cc["memo.persist_misses"] {
		t.Errorf("cold pass into a fresh store: %d writes for %d misses; want one per miss",
			w, cc["memo.persist_misses"])
	}

	warm, wc := renderAll("warm")
	compare("warm", warm, want)
	if wc["memo.persist_writes"] != 0 || wc["memo.persist_misses"] != 0 {
		t.Errorf("warm pass: %d writes, %d misses; want none", wc["memo.persist_writes"], wc["memo.persist_misses"])
	}
	if wc["memo.persist_hits"] == 0 {
		t.Error("warm pass reused nothing from the store")
	}
}

// TestPersistentCacheReuseObservable is the warm-cache acceptance check: a
// second cold process (simulated by resetting every in-memory tier) against
// a warm persistent store must reuse the published studies — zero new row
// computes, memo.persist_hits climbing — and render byte-identically.
func TestPersistentCacheReuseObservable(t *testing.T) {
	cfg := studyCacheTestConfig()
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
// writes to the study cache: one entry per application's combined row and
// nothing else — the classification streams the joint kernel replays live
// and die inside that row's computation. A warm re-run then renders
// byte-identically without generating a single classification stream.
func TestCombinedPersistsOnlyRows(t *testing.T) {
	cfg := studyCacheTestConfig()
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
	entries, err := filepath.Glob(filepath.Join(studyStore.Load().Dir(), "*", "*.row"))
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
		// An entry starts with the schema line, then the varint-prefixed key.
		_, rest, _ := bytes.Cut(raw, []byte("\n"))
		n, k := binary.Uvarint(rest)
		if k <= 0 || uint64(len(rest)-k) < n {
			t.Fatalf("%s: no key after the schema line", path)
		}
		if key := string(rest[k : k+int(n)]); !strings.HasPrefix(key, "combined|") {
			t.Errorf("cold run wrote %q, not a combined row", key)
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

// TestStudyCacheDirLifecycle: enabling and disabling the persistent tier;
// a bad directory is rejected without replacing the store.
func TestStudyCacheDirLifecycle(t *testing.T) {
	defer SetStudyCacheDir("")
	if studyStore.Load() != nil {
		t.Fatal("store active before SetStudyCacheDir")
	}
	if err := SetStudyCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	s := studyStore.Load()
	if s == nil {
		t.Fatal("no store after enabling")
	}
	if err := SetStudyCacheDir("/dev/null/not-a-dir"); err == nil {
		t.Error("unusable directory accepted")
	}
	if studyStore.Load() != s {
		t.Error("rejected directory replaced the active store")
	}
	if err := SetStudyCacheDir(""); err != nil {
		t.Fatal(err)
	}
	if studyStore.Load() != nil {
		t.Fatal("store still active after disabling")
	}
}

// BenchmarkStudyCacheRead times warm study-cache reads: a store primed by
// one small-budget registry run, then each iteration composes the registry
// twice, first after ResetCaches (the process boundary, so every row is read
// and decoded from the store), then again from the in-process memo. The
// difference between the two passes, over the entries the first one read,
// is reported as ns/entry; rendering is not timed.
func BenchmarkStudyCacheRead(b *testing.B) {
	cfg := studyCacheTestConfig()
	defer SetStudyCacheDir("")
	if err := SetStudyCacheDir(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	registry := func() time.Duration {
		start := time.Now()
		for _, id := range IDs() {
			if _, err := Run(id, cfg); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	ResetCaches()
	registry() // prime the store
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	s0 := obs.TakeSnapshot()
	var read time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResetCaches()
		disk := registry()
		read += disk - registry()
	}
	b.StopTimer()
	entries := obs.TakeSnapshot().DiffCounters(s0)["memo.persist_hits"]
	if entries == 0 {
		b.Fatal("the warm passes read no entries")
	}
	b.ReportMetric(float64(read.Nanoseconds())/float64(entries), "ns/entry")
	b.ReportMetric(float64(entries)/float64(b.N), "entries/op")
}

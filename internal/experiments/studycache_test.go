package experiments

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
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
// computes, memo.persist_hits climbing, no file written — and render
// byte-identically.
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
	listing := func() []string {
		names, err := filepath.Glob(filepath.Join(studyStore.Load().Dir(), "*"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	files := listing()
	second := run()
	s2 := obs.TakeSnapshot()
	if after := listing(); !slices.Equal(after, files) {
		t.Errorf("warm run changed the store: %v, then %v", files, after)
	}
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
// writes to the study cache: one segment, the run's, holding one entry per
// application's combined row and nothing else — the classification streams
// the joint kernel replays live and die inside that row's computation. A
// warm re-run then renders byte-identically without generating a single
// classification stream.
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
	segs, err := filepath.Glob(filepath.Join(studyStore.Load().Dir(), "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("cold run wrote %d segments, want 1", len(segs))
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// A segment is the schema line, the entry count, then per entry the
	// varint-prefixed key, a 4-byte checksum and the varint-prefixed payload.
	_, rest, _ := bytes.Cut(raw, []byte("\n"))
	field := func() []byte {
		n, k := binary.Uvarint(rest)
		if k <= 0 || uint64(len(rest)-k) < n {
			t.Fatalf("%s: malformed segment", segs[0])
		}
		f := rest[k : k+int(n)]
		rest = rest[k+int(n):]
		return f
	}
	count, k := binary.Uvarint(rest)
	rest = rest[k:]
	if count != 5 { // gcc, stereo, appcg, compress, swim
		t.Errorf("cold run wrote %d entries, want one per application (5)", count)
	}
	for i := uint64(0); i < count; i++ {
		if key := string(field()); !strings.HasPrefix(key, "combined|") {
			t.Errorf("cold run wrote %q, not a combined row", key)
		}
		rest = rest[4:]
		field()
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

// TestCappedMemoRereadsStore: with the row memo capped far below a run's
// rows, as the API server's -api-cache caps it, a row the memo evicted is
// read from the store again, not recomputed: over a warm store, repeated
// runs in one process miss nothing, publish no segment and render alike.
func TestCappedMemoRereadsStore(t *testing.T) {
	cfg := studyCacheTestConfig()
	defer SetStudyCacheDir("")
	defer func() { SetStudyCacheCap(0); ResetCaches() }()
	if err := SetStudyCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	run := func() string {
		res, err := Run("fig10", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Render()
	}
	segments := func() []string {
		segs, err := filepath.Glob(filepath.Join(studyStore.Load().Dir(), "*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return segs
	}
	ResetCaches()
	cold := run()
	want := segments()
	if len(want) != 1 {
		t.Fatalf("cold run wrote %d segments, want 1", len(want))
	}

	ResetCaches() // process boundary: a warm store
	SetStudyCacheCap(2)
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	for i := 1; i <= 3; i++ {
		s0 := obs.TakeSnapshot()
		got := run()
		c := obs.TakeSnapshot().DiffCounters(s0)
		if c["memo.persist_misses"] != 0 || c["memo.persist_writes"] != 0 || c["memo.persist_hits"] == 0 {
			t.Errorf("warm run %d: %d hits, %d misses, %d writes; want hits only",
				i, c["memo.persist_hits"], c["memo.persist_misses"], c["memo.persist_writes"])
		}
		if got != cold {
			t.Errorf("warm run %d renders differently from the cold run", i)
		}
		if segs := segments(); !slices.Equal(segs, want) {
			t.Errorf("warm run %d left segments %v, want %v", i, segs, want)
		}
	}
}

// TestStudyCacheDirLifecycle: enabling and disabling the persistent tier;
// a bad directory is rejected without replacing the store, and ResetCaches
// reopens the store on its directory.
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
	ResetCaches() // a process boundary: a new store on the same directory
	if r := studyStore.Load(); r == s || r == nil || r.Dir() != s.Dir() {
		t.Errorf("after ResetCaches the store is %p on %q; want a new one on %q", r, r.Dir(), s.Dir())
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

package memo

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

// reopen returns a fresh handle on s's directory: a new process's view.
func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	r, err := OpenStore(filepath.Dir(s.Dir()))
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return r
}

// listing returns the names in s's directory.
func listing(t *testing.T, s *Store) []string {
	t.Helper()
	des, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// segments returns the segment files in s's directory.
func segments(t *testing.T, s *Store) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(s.Dir(), "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func TestOpenStoreRequiresDir(t *testing.T) {
	if _, err := OpenStore(""); err == nil {
		t.Fatal("OpenStore(\"\") should fail")
	}
}

// TestStoreRoundtrip: a put is served from memory until Flush publishes it
// as one segment, which a new handle reads; a row asked for again, by the
// reader or the writer, is read from that segment again.
func TestStoreRoundtrip(t *testing.T) {
	s := testStore(t)
	if _, ok := s.GetBytes("k"); ok {
		t.Fatal("empty store reported a hit")
	}
	want := []byte("payload bytes")
	if err := s.PutBytes("k", want); err != nil {
		t.Fatalf("PutBytes: %v", err)
	}
	got, ok := s.GetBytes("k")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("GetBytes before Flush: %q ok=%v, want %q", got, ok, want)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(segments(t, s)); n != 1 {
		t.Fatalf("Flush wrote %d segments, want 1", n)
	}
	r := reopen(t, s)
	if got, ok := r.GetBytes("k"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("GetBytes from disk: %q ok=%v, want %q", got, ok, want)
	}
	for _, h := range []*Store{r, s} {
		if got, ok := h.GetBytes("k"); !ok || !bytes.Equal(got, want) {
			t.Errorf("GetBytes again: %q ok=%v, want a re-read of %q", got, ok, want)
		}
	}
	if _, ok := r.GetBytes("other"); ok {
		t.Error("GetBytes hit an absent key")
	}
}

// TestPersistDoReusesAcrossInstances is the cross-process contract in
// miniature: a second Store opened on the same directory serves the entry
// the first flushed without calling fn — what lets concurrent processes and
// repeated CLI runs share studies.
func TestPersistDoReusesAcrossInstances(t *testing.T) {
	var calls atomic.Int32
	fn := func() ([]float64, error) { calls.Add(1); return []float64{1, 2, 3}, nil }

	s1 := testStore(t)
	v1, err := PersistDo(s1, "study|a", fn)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Flush(); err != nil {
		t.Fatal(err)
	}
	v2, err := PersistDo(reopen(t, s1), "study|a", fn) // fresh handle = "new process"
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("fn called %d times across two store handles, want 1", calls.Load())
	}
	if len(v1) != 3 || len(v2) != 3 || v1[1] != v2[1] {
		t.Errorf("values diverge: %v vs %v", v1, v2)
	}
}

func TestPersistDoNilStoreDegrades(t *testing.T) {
	var calls atomic.Int32
	for i := 0; i < 2; i++ {
		v, err := PersistDo(nil, "k", func() (int, error) { calls.Add(1); return 5, nil })
		if err != nil || v != 5 {
			t.Fatalf("nil-store PersistDo: %d %v", v, err)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("nil store must compute every time (calls=%d)", calls.Load())
	}
	var s *Store
	if err := s.Flush(); err != nil {
		t.Errorf("nil-store Flush: %v", err)
	}
}

// TestPersistDoRoundTripsInf locks one reason the row codec is not JSON:
// study rows carry ±Inf padding (ProfileCacheTPI's tpi[0]) and the
// byte-identical-render contract needs float64 round-tripped bit-exactly.
func TestPersistDoRoundTripsInf(t *testing.T) {
	s := testStore(t)
	want := []float64{math.Inf(1), 1.25, math.Inf(-1), 0.1 + 0.2}
	fn := func() ([]float64, error) { return append([]float64(nil), want...), nil }
	if _, err := PersistDo(s, "inf", fn); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := PersistDo(reopen(t, s), "inf", func() ([]float64, error) {
		t.Error("fn called despite a persisted entry")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("slot %d: %x != %x (not bit-exact)", i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestPersistDoNeverPersistsErrors(t *testing.T) {
	s := testStore(t)
	boom := errors.New("transient")
	var calls atomic.Int32
	for i := 0; i < 2; i++ {
		_, err := PersistDo(s, "bad", func() (int, error) { calls.Add(1); return 0, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("err %v", err)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("error was persisted: fn called %d times, want 2", calls.Load())
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if names := listing(t, s); len(names) != 0 {
		t.Errorf("failed computations left files on disk: %v", names)
	}
}

// TestWarmRunWritesNothing: a run whose every lookup hits publishes no
// segment, so repeating a warm run never grows the store.
func TestWarmRunWritesNothing(t *testing.T) {
	s := testStore(t)
	for i := 0; i < 3; i++ {
		PersistDo(s, fmt.Sprint("row-", i), func() (int, error) { return i, nil })
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before := listing(t, s)
	r := reopen(t, s)
	for i := 0; i < 3; i++ {
		v, err := PersistDo(r, fmt.Sprint("row-", i), func() (int, error) { return 0, errors.New("computed") })
		if err != nil || v != i {
			t.Fatalf("row-%d: %d, %v; want a hit of %d", i, v, err, i)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if after := listing(t, s); !slices.Equal(after, before) {
		t.Errorf("a run of hits changed the store: %v, then %v", before, after)
	}
}

// TestStoreReleasesRows: what a Store holds in memory does not grow with
// the rows it writes or serves. Flush releases the pending rows; a row read
// from disk is released once served; a row asked for again, its own
// included, is re-read from the segment the index names, not held or
// recomputed; and reading a segment holds no rows of keys already indexed.
func TestStoreReleasesRows(t *testing.T) {
	s := testStore(t)
	for i := 0; i < 3; i++ {
		PersistDo(s, fmt.Sprint("row-", i), func() (int, error) { return i, nil })
	}
	if len(s.pending) != 3 {
		t.Fatalf("%d rows pending, want 3", len(s.pending))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(s.pending) != 0 || len(s.rows) != 0 {
		t.Fatalf("after Flush: %d pending, %d read; want none", len(s.pending), len(s.rows))
	}
	for i := 0; i < 2; i++ {
		v, err := PersistDo(s, "row-0", func() (int, error) { return 0, errors.New("computed") })
		if err != nil || v != 0 || len(s.rows) != 0 {
			t.Fatalf("own row, read %d: %d, %v, %d held; want a re-read of 0 and none held", i, v, err, len(s.rows))
		}
	}

	r := reopen(t, s)
	for i := 0; i < 3; i++ {
		if _, ok := r.GetBytes(fmt.Sprint("row-", i)); !ok {
			t.Fatalf("row-%d unreadable", i)
		}
		if len(r.rows) != 2-i {
			t.Errorf("after serving %d rows, %d held; want %d", i+1, len(r.rows), 2-i)
		}
	}
	if p, ok := r.GetBytes("row-1"); !ok || len(r.rows) != 0 {
		t.Errorf("served row asked for again: %q ok=%v, %d held; want a re-read and none held", p, ok, len(r.rows))
	}

	// Another process republishes row-0 beside a new row: reading that
	// segment for the new row holds no copy of row-0.
	w := reopen(t, s)
	w.PutBytes("row-0", []byte("again"))
	w.PutBytes("row-9", []byte("new"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if p, ok := r.GetBytes("row-9"); !ok || string(p) != "new" || len(r.rows) != 0 {
		t.Errorf("row-9: %q ok=%v, %d rows held; want a hit and none held", p, ok, len(r.rows))
	}
}

// TestLookupReadsMatchingSegments: a segment's name carries the filter of
// its keys, so a lookup reads only the segments that may hold its key; a
// name without a filter may hold any key.
func TestLookupReadsMatchingSegments(t *testing.T) {
	s := testStore(t)
	for _, run := range []string{"a", "b", "c"} {
		for i := 0; i < 20; i++ {
			s.PutBytes(fmt.Sprint(run, "-", i), []byte(run))
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, seg := range segments(t, s) {
		if nameFilter(filepath.Base(seg)) == nil {
			t.Fatalf("%s carries no filter", seg)
		}
	}
	r := reopen(t, s)
	if p, ok := r.GetBytes("b-7"); !ok || string(p) != "b" {
		t.Fatalf("b-7: %q ok=%v", p, ok)
	}
	if len(r.seen) != 1 || len(r.unread) != 2 {
		t.Errorf("a lookup read %d segments and left %d unread; want 1 and 2", len(r.seen), len(r.unread))
	}
	plain := encodeSegment([]segEntry{{"z", []byte("z")}})
	if err := os.WriteFile(filepath.Join(s.Dir(), "plain.seg"), plain, 0o644); err != nil {
		t.Fatal(err)
	}
	if p, ok := r.GetBytes("z"); !ok || string(p) != "z" {
		t.Errorf("z, in a segment named without a filter: %q ok=%v", p, ok)
	}
}

// TestConcurrentLookupsHit: lookups racing on a new handle, some of them
// waiting on the scan another one started, all hit; a lookup that misses
// never returns before the scan that may hold its row has finished.
func TestConcurrentLookupsHit(t *testing.T) {
	s := testStore(t)
	const rows = 64
	for i := 0; i < rows; i++ {
		s.PutBytes(fmt.Sprint("row-", i), []byte(fmt.Sprint(i)))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		r := reopen(t, s)
		var wg sync.WaitGroup
		for i := 0; i < rows; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if p, ok := r.GetBytes(fmt.Sprint("row-", i)); !ok || string(p) != fmt.Sprint(i) {
					t.Errorf("round %d, row-%d: %q ok=%v", round, i, p, ok)
				}
			}()
		}
		wg.Wait()
	}
}

// TestLookupDuringFlushHits: a row stays servable while Flush publishes it:
// it leaves the pending rows only once its segment is in place and indexed.
func TestLookupDuringFlushHits(t *testing.T) {
	s := testStore(t)
	for round := 0; round < 50; round++ {
		keys := make([]string, 8)
		for i := range keys {
			keys[i] = fmt.Sprint("round-", round, "-", i)
			s.PutBytes(keys[i], []byte(keys[i]))
		}
		done := make(chan error)
		go func() { done <- s.Flush() }()
		for flushing := true; flushing; {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				flushing = false
			default:
			}
			for _, k := range keys {
				if p, ok := s.GetBytes(k); !ok || string(p) != k {
					t.Fatalf("%s during a flush: %q ok=%v", k, p, ok)
				}
			}
		}
	}
}

// TestCorruptEntryIsMissAndRepaired: a truncated, garbage, wrong-schema,
// bad-checksum, padded or out-of-key-order segment, or one whose key bytes
// changed after it was written, is a miss for all its rows, never a
// misread; the bad file is removed and the next run's flush republishes the
// rows.
func TestCorruptEntryIsMissAndRepaired(t *testing.T) {
	good := encodeSegment([]segEntry{{"j", []byte("other")}, {"k", []byte("good")}})
	corruptions := map[string][]byte{
		"truncated":    good[:len(good)/2],
		"garbage":      []byte("not a segment"),
		"wrong-key":    bytes.Replace(good, []byte("k"), []byte("K"), 1),
		"wrong-schema": append([]byte("capsim/study-cache/v2"), good[len(storeSchema):]...),
		"bad-checksum": append(bytes.Clone(good[:len(good)-1]), good[len(good)-1]^1),
		"trailing":     append(bytes.Clone(good), 0),
		"unordered":    encodeSegment([]segEntry{{"k", []byte("good")}, {"j", []byte("other")}}),
	}
	for name, raw := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := testStore(t)
			p := filepath.Join(s.Dir(), "bad.seg")
			if err := os.WriteFile(p, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{"j", "k", "K"} {
				if got, ok := s.GetBytes(key); ok {
					t.Fatalf("corrupt segment served %q as %q", key, got)
				}
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("corrupt segment not removed (stat err %v)", err)
			}
			// The next run computes the rows again and repairs the store.
			v, err := PersistDo(s, "k", func() (string, error) { return "good", nil })
			if err != nil || v != "good" {
				t.Fatalf("recompute: %q, %v", v, err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			got, err := PersistDo(reopen(t, s), "k", func() (string, error) { return "", errors.New("computed") })
			if err != nil || got != "good" {
				t.Errorf("repaired row unreadable: %q, %v", got, err)
			}
		})
	}
}

// TestConcurrentPutSameKey: two Stores on one directory (two processes,
// squeezed into goroutines) run and flush concurrently, each computing rows
// of its own and rows both compute. Every hit decodes to the value computed
// for its key; after a miss, each finds every row the other published;
// writers of one value publish the same bytes even when it holds maps,
// whose entries the codec writes in key order, not Go's random iteration
// order; and no temp file is left behind.
func TestConcurrentPutSameKey(t *testing.T) {
	type summary struct {
		Residency map[int]int64
		SizeOf    map[int]int
	}
	value := func(key string) summary {
		v := summary{Residency: map[int]int64{}, SizeOf: map[int]int{}}
		for i := 0; i < 64; i++ {
			v.Residency[i*7-100] = int64(i*i + len(key))
			v.SizeOf[i] = 16 << (i % 4)
		}
		return v
	}
	dir := t.TempDir()
	stores := make([]*Store, 2)
	for w := range stores {
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[w] = s
	}
	const runs = 20
	var wg sync.WaitGroup
	for w, s := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				for _, key := range []string{fmt.Sprint("shared-", i), fmt.Sprint("own-", w, "-", i)} {
					got, err := PersistDo(s, key, func() (summary, error) { return value(key), nil })
					if err != nil || !reflect.DeepEqual(got, value(key)) {
						t.Errorf("store %d, %s: a misread or an error (%v)", w, key, err)
					}
				}
				if err := s.Flush(); err != nil {
					t.Errorf("store %d: Flush: %v", w, err)
				}
			}
		}()
	}
	wg.Wait()
	for w, s := range stores {
		other := 1 - w
		for i := 0; i < runs; i++ {
			key := fmt.Sprint("own-", other, "-", i)
			got, err := PersistDo(s, key, func() (summary, error) { return summary{}, errors.New("computed") })
			if err != nil || !reflect.DeepEqual(got, value(key)) {
				t.Errorf("store %d does not find %s, which store %d published (%v)", w, key, other, err)
			}
		}
	}
	// Every shared row, wherever it was published, is one encoding.
	want := map[string][]byte{}
	for _, p := range segments(t, stores[0]) {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		entries, ok := parseSegment(raw)
		if !ok {
			t.Fatalf("%s: not a segment", p)
		}
		for _, e := range entries {
			if prev, ok := want[e.key]; ok && !bytes.Equal(prev, e.payload) {
				t.Errorf("%s published in two encodings", e.key)
			}
			want[e.key] = e.payload
		}
	}
	if len(want) != 3*runs {
		t.Errorf("the segments hold %d distinct rows, want %d", len(want), 3*runs)
	}
	leftovers, _ := filepath.Glob(filepath.Join(dir, storeDir, "put-*.tmp"))
	if len(leftovers) != 0 {
		t.Errorf("stray temp files: %v", leftovers)
	}
}

// allocated returns the fewest bytes any of three parses of raw allocated:
// the fuzzing worker allocates on goroutines of its own meanwhile.
func allocated(raw []byte) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parseSegment(raw)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzPersistEnvelope parses arbitrary bytes as a segment, directly and as
// a file in a store, which must never panic. The parser accepts exactly
// the bytes encodeSegment writes for the entries it returns, and allocates
// no more than a small multiple of the input; a store lookup hits only for
// a key of an accepted segment and returns the payload written under that
// key, an accepted segment under its filtered name serves every key it
// holds, and a rejected segment is removed.
func FuzzPersistEnvelope(f *testing.F) {
	const key = "fuzz key"
	good := encodeSegment([]segEntry{{key, []byte("payload")}, {"other", nil}})
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	f.Add([]byte{})
	f.Add([]byte("not a segment"))
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(flipped)
	f.Add(encodeSegment([]segEntry{{"other", []byte("payload")}}))
	f.Add(append([]byte("capsim/study-cache/v2"), good[len(storeSchema):]...))
	f.Add(encodeSegment(nil))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte) {
		entries, ok := parseSegment(raw)
		if a := allocated(raw); a > 16*uint64(len(raw))+1024 {
			t.Fatalf("parsing %d bytes allocated %d", len(raw), a)
		}
		if ok && !bytes.Equal(encodeSegment(entries), raw) {
			t.Fatalf("accepted bytes that are not the segment of %q", entries)
		}

		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		nameFilter(string(raw)) // any name parses or carries no filter
		name := "fuzz.seg"      // no filter: read by any lookup
		if ok {
			name = segmentName(raw, entries) // a filter with no false negative
		}
		p := filepath.Join(s.Dir(), name)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		keys := []string{key}
		for _, e := range entries {
			if e.key != key {
				keys = append(keys, e.key)
			}
		}
		for _, k := range keys {
			got, hit := s.GetBytes(k)
			i := slices.IndexFunc(entries, func(e segEntry) bool { return e.key == k })
			switch {
			case hit && (!ok || i < 0):
				t.Fatalf("%q served %q from a segment that does not hold it", k, got)
			case hit && !bytes.Equal(got, entries[i].payload):
				t.Fatalf("%q served %q, the segment holds %q", k, got, entries[i].payload)
			case !hit && ok && i >= 0:
				t.Fatalf("%q missed in a valid segment", k)
			}
		}
		if _, err := os.Stat(p); ok == os.IsNotExist(err) {
			t.Fatalf("valid=%v but file present=%v", ok, err == nil)
		}
		os.Remove(p)
	})
}

package memo

import (
	"bytes"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
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

func TestOpenStoreRequiresDir(t *testing.T) {
	if _, err := OpenStore(""); err == nil {
		t.Fatal("OpenStore(\"\") should fail")
	}
}

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
		t.Fatalf("GetBytes: %q ok=%v, want %q", got, ok, want)
	}
	if !s.Has("k") || s.Has("other") {
		t.Errorf("Has: k=%v other=%v", s.Has("k"), s.Has("other"))
	}
}

// TestPersistDoReusesAcrossInstances is the cross-process contract in
// miniature: a second Store opened on the same directory serves the entry
// without calling fn — what lets shard workers and repeated CLI runs share
// studies.
func TestPersistDoReusesAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int32
	fn := func() ([]float64, error) { calls.Add(1); return []float64{1, 2, 3}, nil }

	s1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := PersistDo(s1, "study|a", fn)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir) // fresh handle = "new process"
	if err != nil {
		t.Fatal(err)
	}
	v2, err := PersistDo(s2, "study|a", fn)
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
}

// TestPersistDoRoundTripsInf locks the reason the codec is gob, not JSON:
// study rows carry ±Inf padding (ProfileCacheTPI's tpi[0]) and the
// byte-identical-render contract needs float64 round-tripped bit-exactly.
func TestPersistDoRoundTripsInf(t *testing.T) {
	s := testStore(t)
	want := []float64{math.Inf(1), 1.25, math.Inf(-1), 0.1 + 0.2}
	fn := func() ([]float64, error) { return append([]float64(nil), want...), nil }
	if _, err := PersistDo(s, "inf", fn); err != nil {
		t.Fatal(err)
	}
	got, err := PersistDo(s, "inf", func() ([]float64, error) {
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
	if s.Has("bad") {
		t.Error("failed computation left an entry on disk")
	}
}

// TestCorruptEntryIsMissAndRepaired: truncation, garbage, wrong key and
// wrong schema all degrade to a miss, remove the bad file, and the next
// compute republishes a good entry.
func TestCorruptEntryIsMissAndRepaired(t *testing.T) {
	corruptions := map[string]func(s *Store, p string){
		"truncated": func(s *Store, p string) {
			raw, _ := os.ReadFile(p)
			os.WriteFile(p, raw[:len(raw)/2], 0o644)
		},
		"garbage": func(s *Store, p string) {
			os.WriteFile(p, []byte("not a gob stream"), 0o644)
		},
		"wrong-key": func(s *Store, p string) {
			var buf bytes.Buffer
			e := storeEntry{Schema: storeSchema, Key: "other", Sum: 0, Payload: nil}
			gob.NewEncoder(&buf).Encode(&e)
			os.WriteFile(p, buf.Bytes(), 0o644)
		},
		"wrong-schema": func(s *Store, p string) {
			var buf bytes.Buffer
			e := storeEntry{Schema: "capsim/study-cache/v0", Key: "k",
				Sum: 0, Payload: nil}
			gob.NewEncoder(&buf).Encode(&e)
			os.WriteFile(p, buf.Bytes(), 0o644)
		},
		"bad-checksum": func(s *Store, p string) {
			var buf bytes.Buffer
			e := storeEntry{Schema: storeSchema, Key: "k", Sum: 12345,
				Payload: []byte("payload")}
			gob.NewEncoder(&buf).Encode(&e)
			os.WriteFile(p, buf.Bytes(), 0o644)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := testStore(t)
			if err := s.PutBytes("k", []byte("good")); err != nil {
				t.Fatal(err)
			}
			p := s.path("k")
			corrupt(s, p)
			if _, ok := s.GetBytes("k"); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("corrupt entry not removed (stat err %v)", err)
			}
			// The next write repairs the slot.
			if err := s.PutBytes("k", []byte("good")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.GetBytes("k"); !ok || string(got) != "good" {
				t.Errorf("repaired entry unreadable: %q ok=%v", got, ok)
			}
		})
	}
}

// TestConcurrentPutSameKey: racing writers (the cross-process publish race,
// squeezed into goroutines) must each leave the entry readable and valid —
// atomic temp+rename means readers never observe a torn file.
func TestConcurrentPutSameKey(t *testing.T) {
	s := testStore(t)
	payload := bytes.Repeat([]byte("deterministic"), 1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := s.PutBytes("hot", payload); err != nil {
					t.Errorf("PutBytes: %v", err)
					return
				}
				if got, ok := s.GetBytes("hot"); ok && !bytes.Equal(got, payload) {
					t.Error("read a torn entry")
					return
				}
			}
		}()
	}
	wg.Wait()
	got, ok := s.GetBytes("hot")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("entry unreadable after concurrent writes")
	}
	// No temp files left behind: every writer either renamed or removed.
	leftovers, _ := filepath.Glob(filepath.Join(s.Dir(), "put-*.tmp"))
	if len(leftovers) != 0 {
		t.Errorf("stray temp files: %v", leftovers)
	}
}

func TestStoreFanOut(t *testing.T) {
	s := testStore(t)
	p := s.path("some key")
	rel, err := filepath.Rel(s.Dir(), p)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(rel)
	if len(dir) != 2 {
		t.Errorf("fan-out dir %q, want a two-hex-digit prefix", dir)
	}
}

// FuzzPersistEnvelope writes arbitrary bytes where an entry belongs and reads
// them back through GetBytes, which must never panic. It may report a hit
// only for an envelope whose schema, key echo and payload checksum all
// match, returning exactly that payload; anything else is a miss that removes
// the file. The fuzzed bytes, stored as a payload, must then round-trip
// through PutBytes and GetBytes unchanged.
func FuzzPersistEnvelope(f *testing.F) {
	const key = "fuzz key"
	envelope := func(e storeEntry) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&e); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	payload := []byte("payload")
	sum := crc32.ChecksumIEEE(payload)
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	f.Add(envelope(storeEntry{Schema: storeSchema, Key: key, Sum: sum, Payload: payload}))
	f.Add(envelope(storeEntry{Schema: storeSchema, Key: key, Sum: sum + 1, Payload: payload}))
	f.Add(envelope(storeEntry{Schema: storeSchema, Key: "other", Sum: sum, Payload: payload}))
	f.Add(envelope(storeEntry{Schema: "capsim/study-cache/v0", Key: key, Sum: sum, Payload: payload}))
	f.Add(envelope(storeEntry{Schema: storeSchema, Key: key}))

	s, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := s.GetBytes(key)
		var e storeEntry
		valid := gob.NewDecoder(bytes.NewReader(raw)).Decode(&e) == nil &&
			e.Schema == storeSchema && e.Key == key && e.Sum == crc32.ChecksumIEEE(e.Payload)
		switch {
		case ok && !valid:
			t.Fatalf("invalid envelope served as a hit: %q", got)
		case ok && !bytes.Equal(got, e.Payload):
			t.Fatalf("hit returned %q, envelope holds %q", got, e.Payload)
		case !ok && valid:
			t.Fatal("valid envelope reported as a miss")
		case !ok:
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("rejected entry not removed (stat err %v)", err)
			}
		}

		if err := s.PutBytes(key, raw); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.GetBytes(key); !ok || !bytes.Equal(got, raw) {
			t.Fatalf("payload round trip: got %q ok=%v, want %q", got, ok, raw)
		}
	})
}

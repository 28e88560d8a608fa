package memo

import (
	"bytes"
	"errors"
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
	if _, ok := s.GetBytes("other"); ok {
		t.Error("GetBytes hit an absent key")
	}
}

// TestPersistDoReusesAcrossInstances is the cross-process contract in
// miniature: a second Store opened on the same directory serves the entry
// without calling fn — what lets concurrent processes and repeated CLI runs share
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
	if _, ok := s.GetBytes("bad"); ok {
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
			os.WriteFile(p, []byte("not an entry"), 0o644)
		},
		"wrong-key": func(s *Store, p string) {
			os.WriteFile(p, encodeEntry("other", []byte("good")), 0o644)
		},
		"wrong-schema": func(s *Store, p string) {
			raw := encodeEntry("k", []byte("good"))
			copy(raw, "capsim/study-cache/v0")
			os.WriteFile(p, raw, 0o644)
		},
		"bad-checksum": func(s *Store, p string) {
			raw := encodeEntry("k", []byte("good"))
			raw[len(raw)-1] ^= 1
			os.WriteFile(p, raw, 0o644)
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
// atomic temp+rename means readers never observe a torn file — and writers
// of one value publish byte-identical files even when it holds maps, whose
// entries the codec writes in key order, not Go's random iteration order.
func TestConcurrentPutSameKey(t *testing.T) {
	type summary struct {
		Residency map[int]int64
		SizeOf    map[int]int
	}
	v := summary{Residency: map[int]int64{}, SizeOf: map[int]int{}}
	for i := 0; i < 64; i++ {
		v.Residency[i*7-100] = int64(i * i)
		v.SizeOf[i] = 16 << (i % 4)
	}
	s := testStore(t)
	private := make([]*Store, 8)
	for w := range private {
		private[w] = testStore(t)
	}
	var wg sync.WaitGroup
	for w := range private {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				payload := marshalRow(v) // each encode ranges over the maps afresh
				if err := s.PutBytes("hot", payload); err != nil {
					t.Errorf("PutBytes: %v", err)
					return
				}
				if got, ok := s.GetBytes("hot"); ok && !bytes.Equal(got, payload) {
					t.Error("read a torn or differently encoded entry")
					return
				}
			}
			if _, err := PersistDo(private[w], "hot", func() (summary, error) { return v, nil }); err != nil {
				t.Errorf("PersistDo: %v", err)
			}
		}(w)
	}
	wg.Wait()
	want, err := os.ReadFile(s.path("hot"))
	if err != nil {
		t.Fatalf("entry unreadable after concurrent writes: %v", err)
	}
	for w, ps := range private {
		if got, err := os.ReadFile(ps.path("hot")); err != nil || !bytes.Equal(got, want) {
			t.Errorf("writer %d published a different file (err %v)", w, err)
		}
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
// only for exactly the bytes encodeEntry writes for the key and some payload,
// returning that payload; anything else is a miss that removes the file. The
// fuzzed bytes, stored as a payload, must then round-trip through PutBytes
// and GetBytes unchanged.
func FuzzPersistEnvelope(f *testing.F) {
	const key = "fuzz key"
	good := encodeEntry(key, []byte("payload"))
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	f.Add([]byte{})
	f.Add([]byte("not an entry"))
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(flipped)
	f.Add(encodeEntry("other", []byte("payload")))
	f.Add(append([]byte("capsim/study-cache/v1"), good[len(storeSchema):]...))
	f.Add(encodeEntry(key, nil))

	s, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		f.Fatal(err)
	}
	hdr := len(entryHeader(key)) + 4 // header, then the checksum
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := s.GetBytes(key)
		valid := len(raw) >= hdr && bytes.Equal(raw, encodeEntry(key, raw[hdr:]))
		switch {
		case ok && !valid:
			t.Fatalf("invalid entry served as a hit: %q", got)
		case ok && !bytes.Equal(got, raw[hdr:]):
			t.Fatalf("hit returned %q, entry holds %q", got, raw[hdr:])
		case !ok && valid:
			t.Fatal("valid entry reported as a miss")
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

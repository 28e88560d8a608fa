package trace

import (
	"sync"
	"testing"

	"capsim/internal/workload"
)

func bench(t testing.TB, name string) workload.Benchmark {
	t.Helper()
	b, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRefCursorMatchesGenerator locks the cursor contract: a cursor yields
// exactly the sequence the live generator's Next produces, across several
// block refills and into a partial block.
func TestRefCursorMatchesGenerator(t *testing.T) {
	b := bench(t, "gcc")
	const n = 3*genBlock + 17
	gen := workload.NewAddressTrace(b, 42)
	cur := RefsFor(b, 42).Cursor()
	for i := 0; i < n; i++ {
		want := gen.Next()
		got := cur.Next()
		if got != want {
			t.Fatalf("ref %d: cursor %+v != generator %+v", i, got, want)
		}
	}
}

// TestOpCursorMatchesGenerator is the instruction-stream counterpart.
func TestOpCursorMatchesGenerator(t *testing.T) {
	defer Reset()
	b := bench(t, "gcc")
	const n = ChunkLen + 999
	gen := workload.NewInstrStream(b, 42)
	cur := OpsFor(b, 42).Cursor()
	for i := 0; i < n; i++ {
		want := gen.Next()
		got := cur.Next()
		if got != want {
			t.Fatalf("instr %d: store %+v != generator %+v", i, got, want)
		}
	}
}

// TestDecodedMatchesDecode checks that the decoded stream is exactly the
// per-address Decode of the generated stream, across several block refills
// and into a partial block, for pow2 and non-pow2 set counts.
func TestDecodedMatchesDecode(t *testing.T) {
	b := bench(t, "compress")
	for _, g := range []Geometry{{BlockBytes: 32, Sets: 128}, {BlockBytes: 32, Sets: 24}} {
		d := DecodedFor(RefsFor(b, 7), g)
		gen := workload.NewAddressTrace(b, 7)
		dec := d.Cursor()
		for i := 0; i < 3*genBlock+17; i++ {
			r := gen.Next()
			wantSet, wantTag := d.Decode(r.Addr)
			set, tag, write := dec.NextDecoded()
			if set != wantSet || tag != wantTag || write != r.Write {
				t.Fatalf("geometry %+v ref %d: got (%d,%#x,%v), want (%d,%#x,%v)",
					g, i, set, tag, write, wantSet, wantTag, r.Write)
			}
		}
	}
}

// TestDecodePow2EqualsDivMod proves the decoded view's shift/mask decode is
// the div/mod decode for power-of-two set counts (cache.Indexer's own test
// pins that this geometry takes the shift/mask path).
func TestDecodePow2EqualsDivMod(t *testing.T) {
	b := bench(t, "gcc")
	s := RefsFor(b, 3)
	d := DecodedFor(s, Geometry{BlockBytes: 32, Sets: 128})
	cur := s.Cursor()
	for i := 0; i < 10000; i++ {
		addr := cur.Next().Addr
		set, tag := d.Decode(addr)
		block := addr / 32
		if int32(block%128) != set || block/128 != tag {
			t.Fatalf("addr %#x: shift/mask (%d,%#x) != div/mod (%d,%#x)",
				addr, set, tag, block%128, block/128)
		}
	}
}

// TestGeometryValidate locks the decodability checks.
func TestGeometryValidate(t *testing.T) {
	for _, g := range []Geometry{{BlockBytes: 0, Sets: 8}, {BlockBytes: 48, Sets: 8}, {BlockBytes: 32, Sets: 0}} {
		if err := g.Validate(); err == nil {
			t.Errorf("geometry %+v accepted", g)
		}
	}
	if err := (Geometry{BlockBytes: 32, Sets: 24}).Validate(); err != nil {
		t.Errorf("non-pow2 set count rejected: %v", err)
	}
}

// TestMemoization checks the instruction-store identity contract: one store
// per (benchmark, seed), discarded by Reset.
func TestMemoization(t *testing.T) {
	defer Reset()
	Reset()
	b := bench(t, "gcc")
	if o1, o2 := OpsFor(b, 1), OpsFor(b, 1); o1 != o2 {
		t.Error("same (benchmark, seed) produced distinct op stores")
	}
	if o1, o2 := OpsFor(b, 1), OpsFor(b, 2); o1 == o2 {
		t.Error("distinct seeds shared an op store")
	}
	// A same-name copy with one profile field changed generates another
	// stream.
	mod := b
	mod.ILP.Base.SrcWeights[2] += 0.3
	if o1, o2 := OpsFor(b, 1), OpsFor(mod, 1); o1 == o2 {
		t.Error("a changed ILP profile shared the original's op store")
	}
	if ops := StoreCounts(); ops != 3 {
		t.Errorf("StoreCounts = %d, want 3", ops)
	}
	Reset()
	if ops := StoreCounts(); ops != 0 {
		t.Errorf("Reset left %d stores", ops)
	}
}

// TestConcurrentCursors certifies the lock-free read path: many goroutines
// replay one instruction store concurrently (racing to extend it) and every
// one observes the identical sequence. Run with -race.
func TestConcurrentCursors(t *testing.T) {
	defer Reset()
	b := bench(t, "swim")
	const n = ChunkLen + 500
	want := make([]workload.Instr, n)
	gen := workload.NewInstrStream(b, 9)
	for i := range want {
		want[i] = gen.Next()
	}
	s := OpsFor(b, 9)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := s.Cursor()
			for i := 0; i < n; i++ {
				if got := cur.Next(); got != want[i] {
					errs <- "sequence diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if s.Len() < n {
		t.Errorf("store length %d < %d", s.Len(), n)
	}
}

// BenchmarkDecodedReplay drains 2^20 gcc references per operation through a
// decoded cursor at the paper's cache geometry and reports the cost per
// reference: each cursor generates its references and decodes them in
// place, so this is generation plus decode.
//
//	go test -run '^$' -bench BenchmarkDecodedReplay -cpu 1 ./internal/trace
func BenchmarkDecodedReplay(b *testing.B) {
	const n = 1 << 20
	d := DecodedFor(RefsFor(bench(b, "gcc"), 1998), Geometry{BlockBytes: 32, Sets: 128})
	var acc uint64
	for i := 0; i < b.N; i++ {
		c := d.Cursor()
		for j := 0; j < n; j++ {
			set, tag, write := c.NextDecoded()
			acc += uint64(set) ^ tag
			if write {
				acc++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/ref")
	sinkU64 = acc
}

var sinkU64 uint64

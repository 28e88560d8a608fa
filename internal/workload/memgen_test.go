package workload

import (
	"math"
	"testing"
)

func TestAddressTraceDeterminism(t *testing.T) {
	b := MustByName("gcc")
	a1 := NewAddressTrace(b, 7)
	a2 := NewAddressTrace(b, 7)
	for i := 0; i < 10000; i++ {
		r1, r2 := a1.Next(), a2.Next()
		if r1 != r2 {
			t.Fatalf("traces diverged at ref %d: %+v vs %+v", i, r1, r2)
		}
	}
}

func TestAddressTraceSeedSensitivity(t *testing.T) {
	b := MustByName("gcc")
	a1 := NewAddressTrace(b, 7)
	a2 := NewAddressTrace(b, 8)
	same := 0
	for i := 0; i < 1000; i++ {
		if a1.Next() == a2.Next() {
			same++
		}
	}
	if same > 900 {
		t.Errorf("different seeds produced nearly identical traces (%d/1000 equal)", same)
	}
}

func TestReferenceSharesMatchWeights(t *testing.T) {
	// Region weights are reference shares: however many references a
	// random-region visit issues, the realized mix must match.
	b := Benchmark{
		Name: "sharecheck",
		Mem: &MemProfile{
			RefsPerInstr: 0.3,
			Regions: []Region{
				{Name: "a", Kind: RandomRegion, Bytes: 8192, Weight: 0.5, Run: 8},
				{Name: "b", Kind: RandomRegion, Bytes: 8192, Weight: 0.3, Run: 1},
				{Name: "c", Kind: StreamRegion, Bytes: 1 << 20, Weight: 0.2, StrideBytes: 8},
			},
		},
		ILP: MustByName("gcc").ILP,
	}
	tr := NewAddressTrace(b, 3)
	counts := map[int]int{}
	const n = 300000
	for i := 0; i < n; i++ {
		r := tr.Next()
		switch {
		case r.Addr < tr.regs[1].base:
			counts[0]++
		case r.Addr < tr.regs[2].base:
			counts[1]++
		default:
			counts[2]++
		}
	}
	for i, want := range []float64{0.5, 0.3, 0.2} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("region %d share %v, want %v", i, got, want)
		}
	}
}

func TestAddressesStayInsideRegions(t *testing.T) {
	for _, b := range CacheApps() {
		tr := NewAddressTrace(b, 5)
		var limits []struct{ lo, hi uint64 }
		for i, r := range b.Mem.Regions {
			limits = append(limits, struct{ lo, hi uint64 }{tr.regs[i].base, tr.regs[i].base + uint64(r.Bytes)})
		}
		for i := 0; i < 20000; i++ {
			r := tr.Next()
			ok := false
			for _, lim := range limits {
				if r.Addr >= lim.lo && r.Addr < lim.hi {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("%s: address %#x outside all regions", b.Name, r.Addr)
			}
		}
	}
}

func TestWriteFraction(t *testing.T) {
	b := MustByName("swim")
	tr := NewAddressTrace(b, 9)
	writes := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if tr.Next().Write {
			writes++
		}
	}
	got := float64(writes) / n
	if math.Abs(got-b.Mem.WriteFrac) > 0.02 {
		t.Errorf("write fraction %v, want %v", got, b.Mem.WriteFrac)
	}
}

func TestStreamRegionSequential(t *testing.T) {
	b := Benchmark{
		Name: "streamonly",
		Mem: &MemProfile{
			RefsPerInstr: 0.3,
			Regions:      []Region{{Name: "s", Kind: StreamRegion, Bytes: 4096, Weight: 1, StrideBytes: 16}},
		},
		ILP: MustByName("gcc").ILP,
	}
	tr := NewAddressTrace(b, 1)
	prev := tr.Next().Addr
	for i := 1; i < 600; i++ {
		cur := tr.Next().Addr
		delta := int64(cur) - int64(prev)
		if delta != 16 && delta != -(4096-16) {
			t.Fatalf("stream stride %d at ref %d (want +16 or wrap)", delta, i)
		}
		prev = cur
	}
}

func TestLoopRegionCyclic(t *testing.T) {
	b := Benchmark{
		Name: "looponly",
		Mem: &MemProfile{
			RefsPerInstr: 0.3,
			Regions:      []Region{{Name: "l", Kind: LoopRegion, Bytes: 1024, Weight: 1, StrideBytes: 8}},
		},
		ILP: MustByName("gcc").ILP,
	}
	tr := NewAddressTrace(b, 1)
	first := tr.Next().Addr
	period := 1024 / 8
	for i := 1; i < period; i++ {
		tr.Next()
	}
	if again := tr.Next().Addr; again != first {
		t.Errorf("loop did not wrap to start: %#x vs %#x", again, first)
	}
}

func TestSpatialRunLength(t *testing.T) {
	// A random region with Run=4 issues 4 consecutive word addresses per
	// visit.
	b := Benchmark{
		Name: "runonly",
		Mem: &MemProfile{
			RefsPerInstr: 0.3,
			Regions:      []Region{{Name: "r", Kind: RandomRegion, Bytes: 1 << 20, Weight: 1, Run: 4}},
		},
		ILP: MustByName("gcc").ILP,
	}
	tr := NewAddressTrace(b, 2)
	sequentialSteps := 0
	prev := tr.Next().Addr
	const n = 40000
	for i := 1; i < n; i++ {
		cur := tr.Next().Addr
		if cur == prev+4 {
			sequentialSteps++
		}
		prev = cur
	}
	got := float64(sequentialSteps) / n
	if math.Abs(got-0.75) > 0.03 { // 3 of every 4 steps are +4 bytes
		t.Errorf("sequential step fraction %v, want ~0.75", got)
	}
}

func TestFill(t *testing.T) {
	b := MustByName("li")
	tr := NewAddressTrace(b, 4)
	buf := tr.Fill(nil, 128)
	if len(buf) != 128 {
		t.Fatalf("Fill returned %d refs", len(buf))
	}
	buf2 := tr.Fill(buf, 64)
	if len(buf2) != 64 {
		t.Fatalf("Fill reuse returned %d refs", len(buf2))
	}
}

func TestNewAddressTracePanicsWithoutMem(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for benchmark without memory profile")
		}
	}()
	NewAddressTrace(MustByName("go"), 1)
}

package cacti

import (
	"testing"
	"testing/quick"

	"capsim/internal/tech"
)

var p18 = tech.ForFeature(tech.Micron018)

func cfg(kb, block, assoc int) Config {
	return Config{SizeBytes: kb * 1024, BlockBytes: block, Assoc: assoc}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		c  Config
		ok bool
	}{
		{cfg(8, 32, 2), true},
		{cfg(2, 32, 1), true},
		{Config{SizeBytes: 0, BlockBytes: 32, Assoc: 1}, false},
		{Config{SizeBytes: 8192, BlockBytes: 48, Assoc: 1}, false}, // non-power-of-2 block
		{Config{SizeBytes: 8192, BlockBytes: 32, Assoc: 0}, false},
		{Config{SizeBytes: 100, BlockBytes: 32, Assoc: 2}, false}, // not divisible
		{Config{SizeBytes: 8192, BlockBytes: 32, Assoc: 2, Subarrays: -1}, false},
	}
	for _, tc := range cases {
		err := tc.c.Validate()
		if tc.ok && err != nil {
			t.Errorf("%+v: unexpected error %v", tc.c, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%+v: expected error", tc.c)
		}
	}
}

func TestSets(t *testing.T) {
	if got := cfg(8, 32, 2).Sets(); got != 128 {
		t.Errorf("8KB/32B/2way sets = %d, want 128", got)
	}
	if got := cfg(16, 64, 4).Sets(); got != 64 {
		t.Errorf("16KB/64B/4way sets = %d, want 64", got)
	}
}

func TestAccessTimeInPlausibleRange(t *testing.T) {
	// An 8KB 2-way bank at 0.18 micron should access in roughly 1-2 ns
	// (calibration anchor: ~1.4 ns).
	total := AccessTime(cfg(8, 32, 2), p18).Total()
	if total < 0.8 || total > 2.0 {
		t.Errorf("8KB 2-way @0.18u access = %v ns, want ~1.4", total)
	}
}

func TestAccessTimeGrowsWithCapacity(t *testing.T) {
	// With a fixed subarray partitioning, bigger banks are slower.
	prev := 0.0
	for _, kb := range []int{2, 8, 32, 128} {
		c := cfg(kb, 32, 2)
		c.Subarrays = 1
		d := AccessTime(c, p18).Total()
		if d <= prev {
			t.Errorf("%dKB: access %v not greater than smaller bank %v", kb, d, prev)
		}
		prev = d
	}
}

func TestAccessTimeGrowsWithAssociativity(t *testing.T) {
	d2 := AccessTime(cfg(16, 32, 2), p18).Total()
	d8 := AccessTime(cfg(16, 32, 8), p18).Total()
	if d8 <= d2 {
		t.Errorf("8-way %v not slower than 2-way %v", d8, d2)
	}
}

func TestAccessTimeScalesWithFeature(t *testing.T) {
	c := cfg(8, 32, 2)
	d25 := AccessTime(c, tech.ForFeature(tech.Micron025)).Total()
	d12 := AccessTime(c, tech.ForFeature(tech.Micron012)).Total()
	if d12 >= d25 {
		t.Errorf("0.12u access %v not faster than 0.25u %v", d12, d25)
	}
}

func TestBreakdownComponentsPositive(t *testing.T) {
	b := AccessTime(cfg(8, 32, 2), p18)
	for name, v := range map[string]float64{
		"decoder": b.Decoder, "wordline": b.Wordline, "bitline": b.Bitline,
		"senseamp": b.SenseAmp, "tagcompare": b.TagCompare, "output": b.OutputDriver,
	} {
		if v <= 0 {
			t.Errorf("%s component %v not positive", name, v)
		}
	}
	sum := b.Decoder + b.Wordline + b.Bitline + b.SenseAmp + b.TagCompare + b.OutputDriver
	if got := b.Total(); got != sum {
		t.Errorf("Total %v != sum %v", got, sum)
	}
}

func TestDimensionsGrowWithCapacity(t *testing.T) {
	w8, h8 := Dimensions(cfg(8, 32, 2), p18)
	w32, h32 := Dimensions(cfg(32, 32, 2), p18)
	if w8 <= 0 || h8 <= 0 {
		t.Fatalf("non-positive dimensions %v x %v", w8, h8)
	}
	if w32 <= w8 || h32 <= h8 {
		t.Errorf("32KB (%vx%v) not larger than 8KB (%vx%v)", w32, h32, w8, h8)
	}
	// Area roughly quadruples for 4x the capacity (same overheads).
	ratio := (w32 * h32) / (w8 * h8)
	if ratio < 3 || ratio > 5 {
		t.Errorf("area ratio %v, want ~4", ratio)
	}
}

func TestAutoSubarrayPartitioning(t *testing.T) {
	// Large banks auto-partition to keep bitlines short; the automatic
	// choice must never be slower than the monolithic layout by much.
	c := cfg(128, 32, 2)
	auto := AccessTime(c, p18).Total()
	c.Subarrays = 1
	mono := AccessTime(c, p18).Total()
	if auto > mono {
		t.Errorf("auto partitioning (%v) slower than monolithic (%v)", auto, mono)
	}
}

func TestAccessTimePositiveProperty(t *testing.T) {
	f := func(szExp, blkExp, assocExp uint8) bool {
		kb := 1 << (szExp % 8)       // 1..128 KB
		block := 16 << (blkExp % 3)  // 16/32/64
		assoc := 1 << (assocExp % 4) // 1..8
		c := cfg(kb, block, assoc)
		if c.Validate() != nil {
			return true // skip inconsistent combos
		}
		b := AccessTime(c, p18)
		return b.Total() > 0 && b.Total() < 50
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccessTimePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid config")
		}
	}()
	AccessTime(Config{SizeBytes: -1, BlockBytes: 32, Assoc: 1}, p18)
}

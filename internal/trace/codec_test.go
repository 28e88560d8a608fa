package trace

import (
	"encoding/binary"
	"math"
	"testing"

	"capsim/internal/obs"
	"capsim/internal/rng"
)

// TestZigzagRoundTrip checks the fold/unfold pair over the full signed range,
// including the extremes where naive abs-based folds overflow.
func TestZigzagRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 2, -2, 63, -63, 64, -64, math.MaxInt64, math.MinInt64}
	for _, v := range cases {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
	// Small magnitudes must get small codes (that is the point of the fold).
	if zigzag(0) != 0 || zigzag(-1) != 1 || zigzag(1) != 2 || zigzag(-2) != 3 {
		t.Errorf("zigzag ordering broken: %d %d %d %d", zigzag(0), zigzag(-1), zigzag(1), zigzag(-2))
	}
}

// TestUvarintMatchesBinary locks the wire format to encoding/binary's LEB128
// and the incremental decoder to its values, across byte-length boundaries.
func TestUvarintMatchesBinary(t *testing.T) {
	vals := []uint64{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1<<35 - 1, 1 << 35, math.MaxUint64}
	r := rng.New(rng.DeriveSeed(1, "codec-test"))
	for i := 0; i < 1000; i++ {
		vals = append(vals, r.Uint64()>>uint(r.Intn(64)))
	}
	var enc []byte
	for _, v := range vals {
		ref := binary.AppendUvarint(nil, v)
		got := appendUvarint(nil, v)
		if string(ref) != string(got) {
			t.Fatalf("appendUvarint(%d) = % x, binary says % x", v, got, ref)
		}
		enc = append(enc, got...)
	}
	off := 0
	for i, want := range vals {
		v, next := uvarintAt(enc, off)
		if v != want {
			t.Fatalf("value %d: decoded %d, want %d", i, v, want)
		}
		off = next
	}
	if off != len(enc) {
		t.Fatalf("decoder consumed %d of %d bytes", off, len(enc))
	}
}

// TestDeltaWraparound proves the address delta chain survives uint64
// wraparound: encoding a sequence that jumps across 2^64 decodes exactly.
func TestDeltaWraparound(t *testing.T) {
	addrs := []uint64{0, math.MaxUint64, 1, math.MaxUint64 - 5, 7, 0}
	var enc []byte
	var prev uint64
	for _, a := range addrs {
		enc = appendUvarint(enc, zigzag(int64(a-prev)))
		prev = a
	}
	prev, off := uint64(0), 0
	for i, want := range addrs {
		u, next := uvarintAt(enc, off)
		off = next
		prev += uint64(unzigzag(u))
		if prev != want {
			t.Fatalf("addr %d: decoded %#x, want %#x", i, prev, want)
		}
	}
}

// TestCompressionRatio checks the acceptance-criteria floor on the real
// workload streams: the standard benchmarks' materialized stores must be at
// least 30% smaller than the flat layout they replaced. It reads the ratio
// the way the bench harness does, from the trace.bytes and trace.bytes_raw
// counters.
func TestCompressionRatio(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	defer Reset()
	Reset()
	obs.SetEnabled(true)
	live0, raw0 := obsBytes.Value(), obsBytesRaw.Value()
	for _, name := range []string{"gcc", "stereo", "appcg", "compress", "swim"} {
		b := bench(t, name)
		RefsFor(b, 1998).Cursor().Next()
		OpsFor(b, 1998).Cursor().Next()
	}
	live, raw := obsBytes.Value()-live0, obsBytesRaw.Value()-raw0
	if raw == 0 {
		t.Fatal("no bytes materialized")
	}
	ratio := float64(live) / float64(raw)
	t.Logf("live %d raw %d ratio %.3f", live, raw, ratio)
	if ratio > 0.70 {
		t.Errorf("compression ratio %.3f exceeds 0.70 (needs >= 30%% shrink)", ratio)
	}
}

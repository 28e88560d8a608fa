package trace

import (
	"encoding/binary"
	"math"
	"testing"

	"capsim/internal/obs"
	"capsim/internal/rng"
)

// TestZigzagRoundTrip checks that unzigzag undoes binary.AppendVarint's
// fold over the full signed range, including the extremes where naive
// abs-based folds overflow.
func TestZigzagRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 2, -2, 63, -63, 64, -64, math.MaxInt64, math.MinInt64}
	for _, v := range cases {
		enc := binary.AppendVarint(nil, v)
		u, next := uvarintAt(enc, 0)
		if got := unzigzag(u); got != v || next != len(enc) {
			t.Errorf("unzigzag(%x) = %d after %d of %d bytes, want %d", enc, got, next, len(enc), v)
		}
	}
	// Small magnitudes must get small codes (that is the point of the fold).
	for code, v := range []int64{0, -1, 1, -2} {
		if enc := binary.AppendVarint(nil, v); len(enc) != 1 || int(enc[0]) != code {
			t.Errorf("zigzag ordering broken: %d encodes as %x, want %x", v, enc, code)
		}
	}
}

// TestUvarintMatchesBinary locks the incremental decoder to encoding/binary's
// LEB128 values, across byte-length boundaries.
func TestUvarintMatchesBinary(t *testing.T) {
	vals := []uint64{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1<<35 - 1, 1 << 35, math.MaxUint64}
	r := rng.New(rng.DeriveSeed(1, "codec-test"))
	for i := 0; i < 1000; i++ {
		vals = append(vals, r.Uint64()>>uint(r.Intn(64)))
	}
	var enc []byte
	for _, v := range vals {
		enc = binary.AppendUvarint(enc, v)
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

// TestCompressionRatio checks the compression floor on the real workload
// streams: the standard benchmarks' materialized instruction stores must be
// at least 30% smaller than the flat layout they replaced. It reads the
// ratio the way the bench harness does, from the trace.bytes and
// trace.bytes_raw counters.
func TestCompressionRatio(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	defer Reset()
	Reset()
	obs.SetEnabled(true)
	live0, raw0 := obsBytes.Value(), obsBytesRaw.Value()
	for _, name := range []string{"gcc", "stereo", "appcg", "compress", "swim"} {
		b := bench(t, name)
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

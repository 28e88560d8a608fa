package memo_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"capsim/internal/core"
	"capsim/internal/flight"
	"capsim/internal/memo"
)

// The study rows' value types: the V of every studyRow and recordedRow
// call in internal/experiments. cacheRow mirrors that package's unexported
// cacheprof row; the codec fingerprints layouts, not type names, so the
// mirror encodes exactly as the original does.
type cacheRow struct {
	TPI  []float64
	Miss []float64
}

var (
	nanBits = math.Float64frombits(0x7ff8_0000_dead_beef) // a NaN with a payload
	negZero = math.Copysign(0, -1)
	floats  = []float64{math.Inf(1), math.Inf(-1), negZero, 0, nanBits, math.NaN(), 0.1 + 0.2, math.SmallestNonzeroFloat64}
)

func sampleRows() map[string]any {
	return map[string]any{
		"queueprof":       floats,
		"queueprof nil":   []float64(nil),
		"queueprof empty": []float64{},
		"cacheprof":       cacheRow{TPI: floats, Miss: []float64{}},
		"cacheprof nil":   cacheRow{},
		"qpolicy": core.RunResult{Policy: "interval(16,64,128)", Instrs: 1 << 40, TimeNS: nanBits,
			TPI: negZero, Switches: -3},
		"qtrace": [][]float64{nil, {}, floats, {math.Inf(-1)}},
		"zoo": []flight.RunSummary{{
			Meta: flight.RunMeta{App: "turb3d", Seed: math.MaxUint64, Sizes: []int{16, 64, 128}, N: 2000,
				Penalty: 20, Policy: "hill", Kind: "contender"},
			End: flight.RunEnd{Intervals: 300, Instrs: 600_000, TimeNS: 1.5e6, TPI: math.Inf(1),
				Switches: 7, CumRegretNS: negZero},
			MaxRegretNS: nanBits,
			Residency:   map[int]int64{2: 9, 0: 5, -1: math.MinInt64, 1 << 40: 1},
			SizeOf:      map[int]int{},
		}, {}},
		"zoo nil": []flight.RunSummary(nil),
	}
}

// bitsEqual is reflect.DeepEqual with floats compared by their bits, so
// NaN payloads and −0 count, and nil still differs from empty.
func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if e := b.MapIndex(k); !e.IsValid() || !bitsEqual(a.MapIndex(k), e) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return false
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// checkKey: Key(v) is v's interface header (the non-nil flag, then the
// type's package path and name as length-prefixed strings) followed by the
// bytes a row of v carries, since one encoder writes both.
func checkKey[V any](t *testing.T, v V) {
	t.Helper()
	typ := reflect.TypeOf(v)
	want := []byte{1}
	for _, s := range []string{typ.PkgPath(), typ.String()} {
		want = append(binary.AppendUvarint(want, uint64(len(s))), s...)
	}
	want = append(want, memo.EncodeValue(v)...)
	if k, ok := memo.Key(v); !ok || k != string(want) {
		t.Fatalf("%T: Key is %x (ok=%v), want header and row encoding %x", v, k, ok, want)
	}
}

// roundTrip publishes v through PersistDo and reads it back from a second
// handle on the store, whose compute must not run. v's key must be its row
// encoding behind the interface header.
func roundTrip[V any](t *testing.T, v V) V {
	t.Helper()
	checkKey(t, v)
	dir := t.TempDir()
	w, err := memo.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := memo.PersistDo(w, "row", func() (V, error) { return v, nil }); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := memo.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := memo.PersistDo(r, "row", func() (V, error) { return v, errors.New("entry not served") })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRowTypesRoundTrip: every study-row value type comes back from the
// store bit for bit — ±Inf, NaN payloads, −0, nil versus empty slices and
// maps, and map entries — and keys as its row encoding.
func TestRowTypesRoundTrip(t *testing.T) {
	if bitsEqual(reflect.ValueOf([]float64{}), reflect.ValueOf([]float64(nil))) ||
		bitsEqual(reflect.ValueOf(nanBits), reflect.ValueOf(math.NaN())) ||
		bitsEqual(reflect.ValueOf(negZero), reflect.ValueOf(0.0)) {
		t.Fatal("bitsEqual cannot tell nil from empty, NaN payloads or signed zeros apart")
	}
	for name, v := range sampleRows() {
		t.Run(name, func(t *testing.T) {
			var got any
			switch v := v.(type) {
			case []float64:
				got = roundTrip(t, v)
			case cacheRow:
				got = roundTrip(t, v)
			case core.RunResult:
				got = roundTrip(t, v)
			case [][]float64:
				got = roundTrip(t, v)
			case []flight.RunSummary:
				got = roundTrip(t, v)
			default:
				t.Fatalf("no round trip for %T", v)
			}
			if !bitsEqual(reflect.ValueOf(got), reflect.ValueOf(v)) {
				t.Errorf("round trip changed the row:\n got %#v\nwant %#v", got, v)
			}
		})
	}
}

// FuzzRowCodec decodes arbitrary bytes as each study-row type. Decoding must
// never panic, must allocate no more than a fixed multiple of the input's
// length (a corrupt length is checked against the bytes left before
// anything is allocated), and any value it accepts must re-encode to the
// input's bytes exactly and key as those bytes behind its interface header.
func FuzzRowCodec(f *testing.F) {
	for _, v := range sampleRows() {
		switch v := v.(type) {
		case []float64:
			f.Add(memo.EncodeValue(v))
		case cacheRow:
			f.Add(memo.EncodeValue(v))
		case core.RunResult:
			f.Add(memo.EncodeValue(v))
		case [][]float64:
			f.Add(memo.EncodeValue(v))
		case []flight.RunSummary:
			f.Add(memo.EncodeValue(v))
		}
	}
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x01}) // a 2^28-element slice in 5 bytes
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecode[[]float64](t, raw)
		checkDecode[cacheRow](t, raw)
		checkDecode[core.RunResult](t, raw)
		checkDecode[[][]float64](t, raw)
		checkDecode[[]flight.RunSummary](t, raw)
	})
}

// allocPerByte bounds the bytes decoding may allocate per input byte: an
// empty inner slice or map costs one input byte and a header or map
// allocation of a few dozen bytes.
const allocPerByte, allocSlack = 64, 64 << 10

func checkDecode[V any](t *testing.T, raw []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, ok := memo.DecodeValue[V](raw)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > uint64(allocPerByte*len(raw)+allocSlack) {
		t.Fatalf("%T: decoding %d bytes allocated %d bytes", v, len(raw), n)
	}
	if !ok {
		return
	}
	if !bytes.Equal(memo.EncodeValue(v), raw) {
		t.Fatalf("%T: accepted %x, which re-encodes as %x", v, raw, memo.EncodeValue(v))
	}
	checkKey(t, v)
}

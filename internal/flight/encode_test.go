package flight

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// equalLines encodes one run column, one progress pulse and one header
// with both encoders and fails unless the bytes agree, or both encoders
// fail where a float is not finite. It reports whether the run encoded.
func equalLines(t *testing.T, run int64, meta RunMeta, evs []Event, end RunEnd, p Progress, generated string) bool {
	t.Helper()
	var got, want bytes.Buffer
	err, werr := EncodeRun(&got, run, meta, evs, end), jsonEncodeRun(&want, run, meta, evs, end)
	if (err != nil) != (werr != nil) {
		t.Fatalf("EncodeRun error %v, encoding/json error %v", err, werr)
	}
	if err != nil {
		if got.Len() != 0 {
			t.Fatalf("EncodeRun wrote %d bytes before failing with %v", got.Len(), err)
		}
		return false
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("run lines differ:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
	got.Reset()
	want.Reset()
	if err, werr := EncodeProgress(&got, p), jsonEncodeProgress(&want, p); err != nil || werr != nil {
		t.Fatalf("progress: %v, %v", err, werr)
	}
	if err, werr := EncodeHeader(&got, generated), jsonEncodeHeader(&want, generated); err != nil || werr != nil {
		t.Fatalf("header: %v, %v", err, werr)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("progress and header lines differ:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
	return true
}

// setFloats sets every float64 field of the struct v points to to f.
func setFloats(v any, f float64) {
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).Kind() == reflect.Float64 {
			rv.Field(i).SetFloat(f)
		}
	}
}

// floatFields returns the indices of the float64 fields of a struct type.
func floatFields(v any) []int {
	var idx []int
	rt := reflect.TypeOf(v)
	for i := 0; i < rt.NumField(); i++ {
		if rt.Field(i).Type.Kind() == reflect.Float64 {
			idx = append(idx, i)
		}
	}
	return idx
}

// TestLedgerLinesMatchJSON checks the hand encoder against encoding/json
// at the boundaries of each rule it re-implements: the 'f'/'e' switch of
// the float format, signed zero, subnormals and the extremes, integer
// extremes, omitempty fields zero and set, null against an empty slice,
// and the escaping of quotes, backslashes, control and HTML characters,
// U+2028/U+2029 and invalid UTF-8.
func TestLedgerLinesMatchJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.8562399999999999, 239.74719999999996, 123456789.125,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		-1e-6, math.Nextafter(-1e-6, 0), -1e21, math.Nextafter(-1e21, 0),
		1e-9, 1.5e-7, 1e-10, 1e-100, 1e20, 1e22, 1e100, 1e300,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		0x1p-1022, math.Nextafter(0x1p-1022, 0), math.MaxFloat64, -math.MaxFloat64,
	}
	for _, f := range floats {
		meta, evs, end := zooColumn(3)
		for i := range evs {
			setFloats(&evs[i], f)
		}
		setFloats(&end, f)
		if !equalLines(t, 1, meta, evs, end, Progress{}, "") {
			t.Fatalf("%v: finite value rejected", f)
		}
	}

	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
	for _, n := range ints {
		meta, evs, end := zooColumn(2)
		meta.N, meta.Penalty, meta.Seed = n, int(n), uint64(n)
		meta.Sizes = []int{int(n), 0, int(-n)}
		evs[0] = Event{Interval: n, Config: int(n), Size: int(n), Cycles: n, Issued: n, DrainCycles: n, OracleCfg: int(n)}
		end = RunEnd{Intervals: n, Instrs: n, Switches: n}
		equalLines(t, n, meta, evs, end, Progress{Done: int(n), Total: int(n)}, "")
	}

	meta, evs, end := zooColumn(2)
	meta.Seed = math.MaxUint64
	evs[0].DrainCycles, evs[0].Switched = 0, false // omitempty fields left out
	evs[1].DrainCycles, evs[1].Switched = 37, true // and written
	equalLines(t, 1, meta, evs, end, Progress{Done: 1, Total: 2, Label: "fig12"}, "2026-01-02T03:04:05Z")

	for _, sizes := range [][]int{nil, {}, {16}} {
		meta.Sizes = sizes
		equalLines(t, 1, meta, nil, end, Progress{}, "")
	}

	names := []string{
		"", "flutter", `a"b`, `back\slash`, "<script>&amp;</script>", "\u2028 and \u2029",
		"\xff\xfe", "bad \xe2\x80 prefix", "\xed\xa0\x80", "\x00\x01\x1f\x7f", "\b\f\n\r\t",
		"h\u00e9llo \u65e5\u672c \U0001F600", "\ufffd", "tail\\",
	}
	for _, s := range names {
		meta, evs, end := zooColumn(1)
		meta.App, meta.Policy, meta.Kind = s, s+"x", "y"+s
		equalLines(t, 2, meta, evs, end, Progress{Label: s}, s)
	}
}

// fuzzReader hands out fields decoded from fuzz input, zeros once the
// input is used up.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) u64() uint64 {
	var b [8]byte
	n := copy(b[:], r.data)
	r.data = r.data[n:]
	return binary.LittleEndian.Uint64(b[:])
}

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	c := r.data[0]
	r.data = r.data[1:]
	return c
}

// float picks a class, then a value: raw IEEE bits (NaN and ±Inf among
// them), a short decimal, a value stepped from the 1e-6 or 1e21 format
// boundary, or a signed zero.
func (r *fuzzReader) float() float64 {
	switch c, v := r.byte(), r.u64(); c % 5 {
	case 0:
		return math.Float64frombits(v)
	case 1:
		return float64(int64(v)>>40) / 1000
	case 2, 3:
		f := 1e-6
		if c%5 == 3 {
			f = 1e21
		}
		for i := 0; i < int(v%5); i++ {
			f = math.Nextafter(f, float64(int64(v>>8)))
		}
		if v&(1<<63) != 0 {
			f = -f
		}
		return f
	default:
		return math.Copysign(0, -float64(v&1))
	}
}

func (r *fuzzReader) str() string {
	n := int(r.byte() % 12)
	if n > len(r.data) {
		n = len(r.data)
	}
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// FuzzLedgerEncode builds run columns, progress pulses and headers from
// the input and requires the hand encoder to write exactly what
// encoding/json writes, and both to fail, the hand encoder writing
// nothing, when a float is NaN or ±Inf.
func FuzzLedgerEncode(f *testing.F) {
	f.Add([]byte("flutter\x00\x01\x02"))
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0xff, 0xf8, 0xff})
	f.Add(bytes.Repeat([]byte{0x3e, 0xb0, 0xc6, 0xf7, 0xa0, 0xb5, 0xed, 0x8d, 2}, 40))
	f.Add([]byte("<\u2028>\xff\\\"&\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data}
		meta := RunMeta{App: r.str(), Seed: r.u64(), N: int64(r.u64()), Penalty: int(r.u64()),
			Policy: r.str(), Kind: r.str()}
		if k := r.byte(); k%4 != 0 {
			meta.Sizes = make([]int, k%4-1)
			for i := range meta.Sizes {
				meta.Sizes[i] = int(r.u64())
			}
		}
		evs := make([]Event, r.byte()%4)
		for i := range evs {
			ev := &evs[i]
			ev.Interval, ev.Config, ev.Size = int64(r.u64()), int(r.u64()), int(r.u64())
			ev.Cycles, ev.Issued, ev.OracleCfg = int64(r.u64()), int64(r.u64()), int(r.u64())
			if c := r.byte(); c&1 != 0 {
				ev.DrainCycles = int64(r.u64())
			}
			ev.Switched = r.byte()&1 != 0
			rv := reflect.ValueOf(ev).Elem()
			for _, j := range floatFields(*ev) {
				rv.Field(j).SetFloat(r.float())
			}
		}
		end := RunEnd{Intervals: int64(r.u64()), Instrs: int64(r.u64()), Switches: int64(r.u64()),
			TimeNS: r.float(), TPI: r.float(), CumRegretNS: r.float()}
		p := Progress{Done: int(r.u64()), Total: int(r.u64()), Label: r.str()}
		equalLines(t, int64(r.u64()), meta, evs, end, p, r.str())
	})
}

// badColumn is a valid run column with one float field set to NaN or ±Inf.
type badColumn struct {
	field string // the field's JSON key
	value float64
	meta  RunMeta
	evs   []Event
	end   RunEnd
}

// badColumns returns one column for each float field of Event and RunEnd
// and each of NaN, +Inf and -Inf.
func badColumns() []badColumn {
	var out []badColumn
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, inEnd := range []bool{false, true} {
			var proto any = Event{}
			if inEnd {
				proto = RunEnd{}
			}
			for _, j := range floatFields(proto) {
				meta, evs, end := zooColumn(5)
				target := reflect.ValueOf(&evs[2]).Elem()
				if inEnd {
					target = reflect.ValueOf(&end).Elem()
				}
				target.Field(j).SetFloat(v)
				key, _, _ := strings.Cut(target.Type().Field(j).Tag.Get("json"), ",")
				out = append(out, badColumn{field: key, value: v, meta: meta, evs: evs, end: end})
			}
		}
	}
	return out
}

// A NaN or ±Inf in any float of a run column fails the file sink loudly:
// Close returns an error naming the field, the column is not written, and
// no NaN or Inf token reaches the file, which still parses with the run
// published before the bad one.
func TestLedgerWriterRejectsNonFinite(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"x.ndjson", "x.ndjson.gz"} {
		path := filepath.Join(dir, name)
		for _, bc := range badColumns() {
			lw, err := CreateLedger(path)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCollector(lw)
			meta, evs, end := zooColumn(5)
			c.PublishRun(meta, evs, end)
			c.PublishRun(bc.meta, bc.evs, bc.end)
			if err := lw.Close(); err == nil || !strings.Contains(err.Error(), bc.field) {
				t.Fatalf("%s: %s = %v: Close returned %v, want an error naming the field", name, bc.field, bc.value, err)
			}
			rc, err := openLedgerReader(path)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(raw, []byte("NaN")) || bytes.Contains(raw, []byte("Inf")) {
				t.Fatalf("%s: %s = %v reached the file", name, bc.field, bc.value)
			}
			l, err := ParseLedger(bytes.NewReader(raw))
			if err != nil || len(l.Runs) != 1 || len(l.Warnings) != 0 {
				t.Fatalf("%s: %s = %v: file holds %d runs, warnings %v, error %v; want the one good run",
					name, bc.field, bc.value, len(l.Runs), l.Warnings, err)
			}
		}
	}
}

// zooColumn builds a run column shaped like one of the zoo league's: full-
// precision clock periods, interval cycles and issue counts that vary, an
// occasional reconfiguration drain and penalty, and every running sum
// accumulated in the engines' operation order, so CheckRun holds on it.
func zooColumn(intervals int) (RunMeta, []Event, RunEnd) {
	meta := RunMeta{App: "flutter", Seed: 1998, Sizes: []int{16, 64, 128}, N: 2000, Penalty: 50,
		Policy: "hysteresis(margin=0.02,dwell=4)", Kind: KindRace}
	periods := []float64{0.6512799999999999, 0.8562399999999999, 1.0431199999999998}
	var timeNS, regretNS float64
	var instrs, switches int64
	evs := make([]Event, intervals)
	cur := 0
	for iv := range evs {
		cfg := (iv / 7) % 3
		var drainCycles int64
		var drainNS, penNS float64
		if cfg != cur {
			drainCycles = int64(30 + iv%11)
			drainNS = float64(drainCycles) * periods[cur]
			penNS = float64(meta.Penalty) * periods[cfg]
			switches++
		}
		cycles := int64(250 + (iv*37)%61)
		issued := int64(2000 + iv%7)
		adv := float64(cycles) * periods[cfg]
		timeNS += drainNS
		timeNS += penNS
		timeNS += adv
		// The oracle picks this column's configuration on three intervals
		// in four, where the column's regret is its switching cost alone.
		oracleCfg, oracle := cfg, adv
		if iv%4 == 0 {
			oracleCfg, oracle = (cfg+1)%3, adv*0.9375
		}
		regret := drainNS + penNS + adv - oracle
		regretNS += regret
		instrs += issued
		evs[iv] = Event{Interval: int64(iv), Config: cfg, Size: meta.Sizes[cfg], Cycles: cycles, Issued: issued,
			PeriodNS: periods[cfg], DrainCycles: drainCycles, DrainNS: drainNS, PenaltyNS: penNS, AdvNS: adv,
			CumTimeNS: timeNS, TPI: adv / float64(issued), OracleCfg: oracleCfg, OracleNS: oracle,
			RegretNS: regret, CumRegretNS: regretNS, Switched: cfg != cur}
		cur = cfg
	}
	end := RunEnd{Intervals: int64(intervals), Instrs: instrs, TimeNS: timeNS, TPI: timeNS / float64(instrs),
		Switches: switches, CumRegretNS: regretNS}
	return meta, evs, end
}

// BenchmarkEncodeRun encodes one zoo-sized run column (300 intervals) as
// the ledger's NDJSON lines: "ndjson" alone into io.Discard, "gzip" through
// the file sink's BestSpeed compressor. It reports ns per event and MB/s of
// NDJSON.
func BenchmarkEncodeRun(b *testing.B) {
	meta, evs, end := zooColumn(300)
	if err := CheckRun(meta, evs, end); err != nil {
		b.Fatal(err)
	}
	var n countWriter
	if err := EncodeRun(&n, 1, meta, evs, end); err != nil {
		b.Fatal(err)
	}
	gz, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
	for _, bc := range []struct {
		name string
		w    io.Writer
	}{{"ndjson", io.Discard}, {"gzip", gz}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := EncodeRun(bc.w, int64(i), meta, evs, end); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
		})
	}
}

// countWriter counts the bytes written to it.
type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

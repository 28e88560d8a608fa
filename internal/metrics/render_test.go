package metrics

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

// fixedCases are values whose 'f' forms sit on the edges of AppendFixed's
// method: exact ties at a decimal place (rounded half to even), carries
// into the next power of ten, values next to powers of ten where a log10
// guess can miss, values with no significant digit at the precision, and
// the limits of float64.
var fixedCases = []float64{
	0.5, 1.5, 2.5, 0.125, 0.375, 1.0625, 0.03125, 1e-4, 5e-5, 4.9999e-5,
	9.5, 9.99995, 0.99995, 0.099995, 99999.99995, 999999.5,
	0.1, 0.01, 0.001, 1, 10, 100, 1e15, 1e16, 1e17, 1e18, 1e21, 1e22, 1e23,
	math.Nextafter(0.1, 0), math.Nextafter(0.1, 1), math.Nextafter(1, 0),
	math.Nextafter(10, 0), math.Nextafter(1e-3, 0), math.Nextafter(1e17, 0),
	1e-6, 1e-7, math.Nextafter(1e-6, 1), math.Nextafter(1e-6, 0),
	123.456, 1.23456789, 0.000123, 4.44e-16, 1e-300,
	math.SmallestNonzeroFloat64, math.MaxFloat64, 1 << 53, 1<<53 + 2,
	0, math.Inf(1), math.NaN(),
}

// randomFixedValue draws values of every kind AppendFixed meets: raw bit
// patterns (mostly far outside a table's range), decimals across 26
// decades, binary fractions (exact ties at some decimal place) and
// neighbours of powers of ten.
func randomFixedValue(r *rand.Rand) float64 {
	var x float64
	switch r.IntN(8) {
	case 0:
		x = math.Float64frombits(r.Uint64())
	case 1, 2, 3:
		x = r.Float64() * math.Pow10(r.IntN(26)-8)
	case 4, 5:
		x = float64(r.IntN(1<<20)) / float64(uint64(1)<<r.IntN(24))
	default:
		x = math.Pow10(r.IntN(26) - 8)
		toward := 0.0
		if r.IntN(2) == 0 {
			toward = math.Inf(1)
		}
		for range r.IntN(3) {
			x = math.Nextafter(x, toward)
		}
	}
	if r.IntN(2) == 0 {
		x = -x
	}
	return x
}

func TestAppendFixedMatchesStrconv(t *testing.T) {
	check := func(x float64, prec int) {
		t.Helper()
		if got, want := AppendFixed(nil, x, prec), strconv.AppendFloat(nil, x, 'f', prec, 64); string(got) != string(want) {
			t.Fatalf("AppendFixed(%v (%#x), %d) = %q, want %q", x, math.Float64bits(x), prec, got, want)
		}
	}
	for _, x := range fixedCases {
		for prec := -1; prec <= 20; prec++ {
			check(x, prec)
			check(-x, prec)
		}
	}
	r := rand.New(rand.NewPCG(1998, 1))
	for range 50_000 {
		x := randomFixedValue(r)
		for prec := range 7 {
			check(x, prec)
		}
	}
}

func TestAppendFixedDoesNotAllocate(t *testing.T) {
	var buf [64]byte
	xs := []float64{0, 1.2345, -0.99995, 123456.789, 1e-3}
	if n := testing.AllocsPerRun(100, func() {
		for _, x := range xs {
			AppendFixed(buf[:0], x, 4)
		}
	}); n != 0 {
		t.Errorf("AppendFixed allocates %v times a run", n)
	}
}

// checkFixedVerbs compares every fixed-precision verb the renderers replace
// with fmt's output for x.
func checkFixedVerbs(t *testing.T, x float64) {
	t.Helper()
	var num [32]byte
	for _, c := range []struct {
		verb string
		got  string
	}{
		{"%.4f", F(x)},
		{"%.2f", string(AppendFixed(nil, x, 2))},
		{"%.1f%%", string(append(AppendFixed(nil, x, 1), '%'))},
		{" %9.4f", string(appendCell(nil, AppendFixed(num[:0], x, 4)))},
		{" %9.4g", string(appendCell(nil, strconv.AppendFloat(num[:0], x, 'g', 4, 64)))},
	} {
		if want := fmt.Sprintf(c.verb, x); c.got != want {
			t.Errorf("%s of %v (%#x) = %q, fmt gives %q", c.verb, x, math.Float64bits(x), c.got, want)
		}
	}
	if got, want := Pct(x), fmtPct(x); got != want {
		t.Errorf("Pct(%v) = %q, fmt gives %q", x, got, want)
	}
}

func TestFixedVerbsMatchFmt(t *testing.T) {
	for _, x := range fixedCases {
		checkFixedVerbs(t, x)
		checkFixedVerbs(t, -x)
	}
	checkFixedVerbs(t, math.Inf(-1))
}

func FuzzAppendFixed(f *testing.F) {
	for _, x := range fixedCases {
		f.Add(x)
		f.Add(-x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		for prec := range 7 {
			if got, want := AppendFixed(nil, x, prec), strconv.AppendFloat(nil, x, 'f', prec, 64); string(got) != string(want) {
				t.Fatalf("AppendFixed(%v (%#x), %d) = %q, want %q", x, math.Float64bits(x), prec, got, want)
			}
		}
		checkFixedVerbs(t, x)
	})
}

// render is a figure's text form.
func render(f Figure) string { return string(f.Append(nil)) }

var negZero = math.Copysign(0, -1)

// renderCases are figures the registry never builds but the renderer must
// print as the fmt oracle does: duplicate X values (the last Y wins),
// missing points, −0 beside +0 (one column, the last zero's sign), NaN X
// values (a column each, never matched), non-ASCII and long names.
var renderCases = []Figure{
	{ID: "f0", Title: "empty", XLabel: "x", YLabel: "y"},
	{ID: "f1", Title: "one empty series", Series: []Series{{Name: "a"}}},
	{ID: "f2", Title: "merge", XLabel: "size", YLabel: "TPI", Series: []Series{
		{Name: "a", X: []float64{1, 2, 4}, Y: []float64{0.1, 0.2, 0.4}},
		{Name: "b", X: []float64{4, 2, 8}, Y: []float64{1.5, -2.25, 1e9}},
	}},
	{ID: "f3", Title: "duplicates", Series: []Series{
		{Name: "dup", X: []float64{3, 1, 3, 3}, Y: []float64{1, 2, 3, 4}},
	}},
	{ID: "f4", Title: "zeros", Series: []Series{
		{Name: "a", X: []float64{0, 1}, Y: []float64{5, 6}},
		{Name: "b", X: []float64{negZero}, Y: []float64{7}},
	}},
	{ID: "f5", Title: "zeros", Series: []Series{
		{Name: "a", X: []float64{negZero, -1}, Y: []float64{5, 6}},
		{Name: "b", X: []float64{2, 0}, Y: []float64{7, negZero}},
	}},
	{ID: "f6", Title: "NaN", Series: []Series{
		{Name: "a", X: []float64{math.NaN(), 1, math.NaN()}, Y: []float64{1, 2, 3}},
		{Name: "b", X: []float64{math.Inf(-1), math.NaN(), math.Inf(1)}, Y: []float64{math.NaN(), 4, math.Inf(-1)}},
	}},
	{ID: "f7", Title: "names", Series: []Series{
		{Name: "größe", X: []float64{1e-7, 12345.678}, Y: []float64{0.99995, 123456.5}},
		{Name: "日本語の系列", X: []float64{1e-7}, Y: []float64{-0.00004}},
		{Name: "a-series-name-longer-than-eight", X: []float64{1e21}, Y: []float64{negZero}},
		{Name: "\xff\xfe", X: []float64{5}, Y: []float64{2}},
	}},
}

func TestFigureRenderMatchesFmt(t *testing.T) {
	for _, f := range renderCases {
		if got, want := render(f), fmtFigureRender(f); got != want {
			t.Errorf("%s: Render\n%s\nfmt oracle\n%s", f.ID, got, want)
		}
	}
}

func TestTableRenderMatchesFmt(t *testing.T) {
	for _, tb := range []Table{
		{ID: "t0", Title: "no columns"},
		{ID: "t1", Title: "plain", Columns: []string{"app", "TPI", "Δ"},
			Rows: [][]string{{"gcc", "0.1234", "+1.0%"}, {"compress", "12.5000", "-0.3%"}, {"x"}}},
		{ID: "t2", Title: "runes", Columns: []string{"größe", "名前"},
			Rows: [][]string{{"ä", "日本語"}, {"\xff", ""}}},
	} {
		if got, want := tb.Render(), fmtTableRender(tb); got != want {
			t.Errorf("%s: Render\n%s\nfmt oracle\n%s", tb.ID, got, want)
		}
	}
}

// fuzzReader turns fuzz bytes into render inputs; it reads zeros once the
// bytes run out.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return c
}

var fuzzFloats = []float64{0, negZero, math.NaN(), 1, 2, 0.5, 16, 128, 1e-5, 0.99995, 12345.678, -3, math.Inf(1), math.Inf(-1)}

func (r *fuzzReader) float() float64 {
	c := r.byte()
	if int(c) < len(fuzzFloats) {
		return fuzzFloats[c]
	}
	var u uint64
	for range 8 {
		u = u<<8 | uint64(r.byte())
	}
	return math.Float64frombits(u)
}

var fuzzNames = []string{"", "a", "gcc", "größe", "日本語の系列", "a-series-name-longer-than-eight", "\xff\xfe"}

func (r *fuzzReader) name() string {
	c := r.byte()
	if int(c) < len(fuzzNames) {
		return fuzzNames[c]
	}
	n := min(int(c)%12, len(*r))
	s := string((*r)[:n])
	*r = (*r)[n:]
	return s
}

func FuzzRender(f *testing.F) {
	f.Add([]byte{2, 1, 3, 0, 5, 1, 6, 2, 2, 0, 7, 3, 1})
	f.Add([]byte{3, 3, 4, 2, 1, 2, 2, 8, 9, 4, 1, 3, 200, 1, 2, 3, 4, 5, 6, 7, 8, 9, 6, 2, 2})
	f.Add([]byte("\x04\x05\x06fig\x02\x07\x08ragged rows and names"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		fig := Figure{ID: r.name(), Title: r.name(), XLabel: r.name(), YLabel: r.name()}
		for range r.byte() % 5 {
			s := Series{Name: r.name()}
			for range r.byte() % 8 {
				s.X = append(s.X, r.float())
				s.Y = append(s.Y, r.float())
			}
			fig.Series = append(fig.Series, s)
		}
		if got, want := render(fig), fmtFigureRender(fig); got != want {
			t.Fatalf("figure %#v:\nRender\n%q\nfmt oracle\n%q", fig, got, want)
		}

		tb := Table{ID: r.name(), Title: r.name()}
		for range r.byte() % 5 {
			tb.Columns = append(tb.Columns, r.name())
		}
		for range r.byte() % 5 {
			var row []string
			for range r.byte() % 7 {
				row = append(row, r.name())
			}
			tb.Rows = append(tb.Rows, row)
		}
		got := tb.Render()
		want, panicked := func() (s string, panicked bool) {
			defer func() { panicked = recover() != nil }()
			return fmtTableRender(tb), false
		}()
		switch {
		case !panicked && got != want:
			t.Fatalf("table %#v:\nRender\n%q\nfmt oracle\n%q", tb, got, want)
		case panicked:
			// A row wider than the columns: the oracle panics; every cell
			// still prints.
			for _, row := range tb.Rows {
				for _, cell := range row {
					if !strings.Contains(got, cell) {
						t.Fatalf("table %#v: cell %q missing from\n%q", tb, cell, got)
					}
				}
			}
		}
	})
}

// BenchmarkAppendFixed formats table-range values at %.4f; the strconv
// case is the 'f' path AppendFixed replaces.
func BenchmarkAppendFixed(b *testing.B) {
	xs := []float64{0.1234567, 1.5, 12.345678, 0.00123, 345.6789, 0.99995, 2.25, 7.125}
	var buf [64]byte
	b.Run("AppendFixed", func(b *testing.B) {
		for i := range b.N {
			AppendFixed(buf[:0], xs[i%len(xs)], 4)
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := range b.N {
			strconv.AppendFloat(buf[:0], xs[i%len(xs)], 'f', 4, 64)
		}
	})
}

// Package metrics provides the TPI bookkeeping and plain-text rendering the
// experiment harness uses to reproduce the paper's tables and figures as
// aligned text series.
package metrics

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice) — the
// paper's "average" rows aggregate per-application TPI arithmetically.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Reduction returns the fractional reduction from base to improved
// (positive = improvement), 0 when base is 0.
func Reduction(base, improved float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - improved) / base
}

// Series is one named curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced paper figure: a set of series over a common domain.
type Figure struct {
	ID     string // "fig7a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Append appends the figure to b as an aligned text table: one row per
// series, one column per X value. The X labels print as %9.4g and the
// cells as %9.4f would; a point a series lacks prints as "-".
func (f Figure) Append(b []byte) []byte {
	b = append(b, f.ID+": "+f.Title+"\n"+f.YLabel+" vs "+f.XLabel+"\n"...)
	xs, nans := f.domain()
	w := 8
	for _, s := range f.Series {
		w = max(w, len(s.Name))
	}
	b = appendSpaces(b, w)
	for range nans {
		b = appendCell(b, []byte("NaN"))
	}
	var num [32]byte
	for _, x := range xs {
		b = appendCell(b, strconv.AppendFloat(num[:0], x, 'g', 4, 64))
	}
	b = append(b, '\n')
	ys := make([]float64, len(xs))
	has := make([]bool, len(xs))
	for _, s := range f.Series {
		clear(has)
		next := 0
		for i, x := range s.X {
			if x != x {
				continue // a NaN X matches no column, not even its own
			}
			j := next
			if j >= len(xs) || xs[j] != x {
				j, _ = slices.BinarySearch(xs, x)
			}
			ys[j], has[j], next = s.Y[i], true, j+1
		}
		b = append(appendSpaces(b, w-utf8.RuneCountInString(s.Name)), s.Name...)
		for range nans {
			b = appendCell(b, []byte("-"))
		}
		for j := range xs {
			if has[j] {
				b = appendCell(b, AppendFixed(num[:0], ys[j], 4))
			} else {
				b = appendCell(b, []byte("-"))
			}
		}
		b = append(b, '\n')
	}
	return b
}

// domain returns the sorted, distinct non-NaN X values of every series and
// the number of NaN X values. Each NaN is a column of its own, printed
// before the rest, and −0 and +0 are one value, labelled with the sign of
// the last zero in series order: the rendering the union set of a
// map[float64]bool gave.
func (f Figure) domain() (xs []float64, nans int) {
	n := 0
	for _, s := range f.Series {
		n += len(s.X)
	}
	xs = make([]float64, 0, n)
	zero, negZero := false, false
	for _, s := range f.Series {
		for _, x := range s.X {
			switch {
			case x != x:
				nans++
				continue
			case x == 0:
				zero, negZero = true, math.Signbit(x)
			}
			xs = append(xs, x)
		}
	}
	slices.Sort(xs)
	xs = slices.Compact(xs)
	if zero {
		i, _ := slices.BinarySearch(xs, 0)
		xs[i] = 0
		if negZero {
			xs[i] = math.Copysign(0, -1)
		}
	}
	return xs, nans
}

// Table is a reproduced result table (per-application bars of Figures 8, 9
// and 11 render naturally as tables).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// Render prints the table with aligned columns.
func (t Table) Render() string { return string(t.Append(nil)) }

// Append appends the Render form of t to b. Each column is as wide as its
// widest cell in bytes, and cells are left-aligned and padded by rune count,
// as fmt's %-*s pads. Cells of a row beyond the declared columns print
// unpadded.
func (t Table) Append(b []byte) []byte {
	b = append(b, t.ID+": "+t.Title+"\n"...)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], len(cell))
			}
		}
	}
	b = appendRow(b, t.Columns, widths)
	for i, w := range widths {
		if i > 0 {
			b = append(b, "  "...)
		}
		for range w {
			b = append(b, '-')
		}
	}
	b = append(b, '\n')
	for _, row := range t.Rows {
		b = appendRow(b, row, widths)
	}
	return b
}

func appendRow(b []byte, cells []string, widths []int) []byte {
	for i, cell := range cells {
		if i > 0 {
			b = append(b, "  "...)
		}
		b = append(b, cell...)
		if i < len(widths) {
			b = appendSpaces(b, widths[i]-utf8.RuneCountInString(cell))
		}
	}
	return append(b, '\n')
}

// appendSpaces appends n spaces (none when n <= 0).
func appendSpaces(b []byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, ' ')
	}
	return b
}

// appendCell appends an ASCII figure cell as fmt's " %9s" does.
func appendCell(b, cell []byte) []byte {
	return append(appendSpaces(append(b, ' '), 9-len(cell)), cell...)
}

// F formats a float with 4 decimal places for table cells (%.4f).
func F(x float64) string {
	var buf [32]byte
	return string(AppendFixed(buf[:0], x, 4))
}

// Pct formats a fraction as a signed percentage (%+.1f%% of 100x).
func Pct(x float64) string {
	var buf [32]byte
	b := AppendFixed(append(buf[:0], '+'), 100*x, 1)
	if b[1] == '-' || b[1] == '+' {
		b = b[1:]
	}
	return string(append(b, '%'))
}

// AppendFixed appends x with prec digits after the decimal point, byte for
// byte as strconv.AppendFloat(dst, x, 'f', prec, 64).
//
// strconv formats 'f' at a fixed precision with its multiprecision decimal,
// but 'e' with at most 18 digits on the much faster Ryū fixed-digit path;
// both round exactly, half to even. AppendFixed therefore asks 'e' for as
// many significant digits as the 'f' form has down to its last decimal
// place, floor(log10|x|)+prec+1, and rewrites them in fixed notation. The
// digits end at the right place exactly when 'e' prints the exponent
// AppendFixed assumed, so a mismatch is resolved by a second try at the
// printed exponent: it either matches, or it shows that the first try's
// rounding carried into the next power of ten. Anything else falls back
// to strconv, as do NaN, ±Inf, a negative prec, values with no significant
// digit at prec places and values needing more than 18 digits.
func AppendFixed(dst []byte, x float64, prec int) []byte {
	var buf [32]byte
	first, rest, e, ok := fixedDigits(buf[:0], math.Abs(x), prec)
	if !ok {
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	}
	if math.Signbit(x) {
		dst = append(dst, '-')
	}
	if e < 0 {
		dst = append(append(dst, '0', '.'), zeros[:-e-1]...)
		return append(append(dst, first), rest...)
	}
	dst = append(append(dst, first), rest[:e]...)
	if prec == 0 {
		return dst
	}
	return append(append(dst, '.'), rest[e:]...)
}

var zeros = []byte("000000000000000000")

// fixedDigits returns the significant digits of ax ≥ 0 rounded at prec
// decimal places, as the first digit and the rest, and the decimal exponent
// of the first; buf holds the digits. ok is false where AppendFixed defers
// to strconv.
func fixedDigits(buf []byte, ax float64, prec int) (first byte, rest []byte, e int, ok bool) {
	switch {
	case prec < 0 || prec >= len(zeros) || !(ax <= math.MaxFloat64):
		return 0, nil, 0, false
	case ax == 0:
		return '0', zeros[:prec], 0, true
	}
	// floor(log10 ax): floor(log10 2^k) for ax's binary exponent k, or one
	// more. A misjudged guess is caught below like any other.
	e = (int(math.Float64bits(ax)>>52) - 1023) * 78913 >> 18
	if ax >= math.Pow10(e+1) {
		e++
	}
	first, rest, got, ok := appendE(buf, ax, e+prec+1)
	if !ok || got == e {
		return first, rest, e, ok
	}
	guess := e
	e = got
	first, rest, got, ok = appendE(buf, ax, e+prec+1)
	switch {
	case ok && got == e:
		return first, rest, e, true
	case ok && got == guess && e == guess+1:
		// ax rounds up to 10^e at prec places.
		return '1', zeros[:e+prec], e, true
	}
	return 0, nil, 0, false
}

// appendE formats ax > 0 in 'e' with n significant digits into dst and
// returns the digits, split as the first and the rest, and the decimal
// exponent. ok is false for an n outside 1..18, which strconv would not
// format on its fast path.
func appendE(dst []byte, ax float64, n int) (first byte, rest []byte, exp int, ok bool) {
	if n < 1 || n > len(zeros) {
		return 0, nil, 0, false
	}
	d := strconv.AppendFloat(dst, ax, 'e', n-1, 64) // "D.DDDe±XX", or "De±XX"
	i := bytes.LastIndexByte(d, 'e')
	for _, c := range d[i+2:] {
		exp = 10*exp + int(c-'0')
	}
	if d[i+1] == '-' {
		exp = -exp
	}
	return d[0], d[min(2, i):i], exp, true
}

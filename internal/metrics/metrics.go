// Package metrics provides the TPI bookkeeping and plain-text rendering the
// experiment harness uses to reproduce the paper's tables and figures as
// aligned text series.
package metrics

import (
	"fmt"
	"sort"
	"strings"
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

// Render prints the figure as an aligned text table: one row per X value,
// one column per series.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%s vs %s\n", f.YLabel, f.XLabel)
	// Collect the union of X values.
	xset := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xset[x] = true
		}
	}
	xs := make([]float64, 0, len(xset))
	for x := range xset {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	w := 0
	for _, s := range f.Series {
		if len(s.Name) > w {
			w = len(s.Name)
		}
	}
	if w < 8 {
		w = 8
	}
	fmt.Fprintf(&b, "%*s", w, "")
	for _, x := range xs {
		fmt.Fprintf(&b, " %9.4g", x)
	}
	b.WriteByte('\n')
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%*s", w, s.Name)
		idx := map[float64]float64{}
		for i, x := range s.X {
			idx[x] = s.Y[i]
		}
		for _, x := range xs {
			if y, ok := idx[x]; ok {
				fmt.Fprintf(&b, " %9.4f", y)
			} else {
				fmt.Fprintf(&b, " %9s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
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
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// F formats a float with 4 significant digits for table cells.
func F(x float64) string { return fmt.Sprintf("%.4f", x) }

// Pct formats a fraction as a signed percentage.
func Pct(x float64) string { return fmt.Sprintf("%+.1f%%", 100*x) }

package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// The fmt-based renderers the append-built ones replaced, kept as
// differential oracles: every verb goes through fmt, whose fixed-precision
// %f takes strconv's multiprecision path, and the X domain is the union set
// of a map[float64]bool. They panic on a row wider than its table's
// columns, which the production renderer prints unpadded.

func fmtFigureRender(f Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%s vs %s\n", f.YLabel, f.XLabel)
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

func fmtTableRender(t Table) string {
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

func fmtF(x float64) string { return fmt.Sprintf("%.4f", x) }

func fmtPct(x float64) string { return fmt.Sprintf("%+.1f%%", 100*x) }

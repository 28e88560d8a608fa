package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestReduction(t *testing.T) {
	if got := Reduction(2, 1); got != 0.5 {
		t.Errorf("Reduction = %v", got)
	}
	if got := Reduction(0, 1); got != 0 {
		t.Errorf("Reduction(0,..) = %v", got)
	}
	if got := Reduction(1, 2); got != -1 {
		t.Errorf("negative reduction = %v", got)
	}
}

func TestReductionEdgeCases(t *testing.T) {
	// Zero base with zero improved: still the defined 0, not NaN.
	if got := Reduction(0, 0); got != 0 {
		t.Errorf("Reduction(0,0) = %v", got)
	}
	// Improved == base: no change.
	if got := Reduction(3.5, 3.5); got != 0 {
		t.Errorf("Reduction(equal) = %v", got)
	}
	// Improved down to zero: full (100%) reduction.
	if got := Reduction(4, 0); got != 1 {
		t.Errorf("Reduction(4,0) = %v", got)
	}
	// Negative base is not special-cased; the ratio is still well defined
	// and must not be NaN.
	if got := Reduction(-2, -1); math.IsNaN(got) {
		t.Errorf("Reduction(-2,-1) = %v", got)
	}
}

func TestMeanSingle(t *testing.T) {
	if got := Mean([]float64{41.5}); got != 41.5 {
		t.Errorf("Mean single = %v", got)
	}
	if got := Mean([]float64{}); got != 0 {
		t.Errorf("Mean(empty) = %v", got)
	}
}

func TestFigureRenderEmpty(t *testing.T) {
	// A figure with no series renders its header without panicking.
	out := Figure{ID: "fig0", Title: "empty", XLabel: "x", YLabel: "y"}.Render()
	if !strings.Contains(out, "fig0") || !strings.Contains(out, "empty") {
		t.Errorf("empty figure render:\n%s", out)
	}
	// A series with no points likewise.
	out = Figure{
		ID: "fig0", Title: "empty series", XLabel: "x", YLabel: "y",
		Series: []Series{{Name: "a"}},
	}.Render()
	if !strings.Contains(out, "a") {
		t.Errorf("empty-series figure render:\n%s", out)
	}
}

func TestTableRenderRagged(t *testing.T) {
	// Rows wider than the column header list must not panic or corrupt
	// alignment of the declared columns.
	tb := Table{
		ID: "t2", Title: "ragged",
		Columns: []string{"name"},
		Rows:    [][]string{{"alpha"}, {"beta"}},
	}
	out := tb.Render()
	for _, want := range []string{"t2", "ragged", "alpha", "beta"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Empty table: header + separator only.
	out = Table{ID: "t3", Title: "empty", Columns: []string{"c"}}.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Errorf("empty table line count %d:\n%s", len(lines), out)
	}
}

func TestFigureRender(t *testing.T) {
	f := Figure{
		ID: "figX", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{0.1, 0.2}},
			{Name: "b", X: []float64{2, 3}, Y: []float64{0.3, 0.4}},
		},
	}
	out := f.Render()
	for _, want := range []string{"figX", "demo", "a", "b", "0.1000", "0.4000"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Series b has no value at x=1: rendered as "-".
	if !strings.Contains(out, "-") {
		t.Errorf("missing placeholder for absent point:\n%s", out)
	}
	// The union domain is sorted: 1 before 3.
	if strings.Index(out, " 1") > strings.Index(out, " 3") {
		t.Errorf("x values out of order:\n%s", out)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{
		ID: "t1", Title: "demo table",
		Columns: []string{"name", "value"},
		Rows:    [][]string{{"alpha", "1.0"}, {"b", "22.5"}},
	}
	out := tb.Render()
	for _, want := range []string{"t1", "demo table", "name", "alpha", "22.5", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + separator + 2 rows + title line.
	if len(lines) != 5 {
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestFormatters(t *testing.T) {
	if got := F(0.123456); got != "0.1235" {
		t.Errorf("F = %q", got)
	}
	if got := Pct(0.256); got != "+25.6%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(-0.01); got != "-1.0%" {
		t.Errorf("Pct = %q", got)
	}
}

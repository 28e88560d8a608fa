package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// dist summarizes the samples behind one metric of one run.
type dist struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := sorted(xs)
	q1, q2, q3 := quartiles(s)
	return dist{N: len(s), Min: s[0], P25: q1, Median: q2, P75: q3, Max: s[len(s)-1]}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(sorted(xs))
	return m
}

// quartiles of sorted data, computed as Python's
// statistics.quantiles(data, n=4) does (the "exclusive" method), so spreads
// printed here match the ones a regression check computes from the same
// values. The middle quartile is the median.
func quartiles(s []float64) (q1, q2, q3 float64) {
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// percentile is the linearly interpolated p-th percentile (0..100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readSpec loads BENCHMARK.json from the root of the checkout.
func readSpec(root string) (benchSpec, error) {
	var spec benchSpec
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// readRecords loads run records from a JSON-lines file or a JSON array.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if t := bytes.TrimSpace(data); len(t) > 0 && t[0] == '[' {
		if err := json.Unmarshal(t, &recs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return recs, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var r record
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// group collects, per workload and metric, the values of the end-to-end
// runs in recs.
func group(recs []record) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for n, m := range r.Result.Metrics {
			out[r.Workload][n] = append(out[r.Workload][n], m.Value)
		}
	}
	return out
}

// runCompare prints, per workload and end-to-end metric, the median and
// quartile spread of each file's runs and, given two files, the change of
// the median against the metric's bound in BENCHMARK.json. A change beyond
// the bound is "worse"; where either side's spread exceeds the bound the
// row is "unresolved" unless every new run beats every base run.
func runCompare(paths []string) error {
	if len(paths) > 2 {
		return fmt.Errorf("-compare takes one or two files")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	var sets []map[string]map[string][]float64
	for _, p := range paths {
		recs, err := readRecords(p)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if !r.Result.Correct {
				fmt.Printf("warning: %s: %s seed %d was not correct\n", p, r.Workload, r.Seed)
			}
		}
		sets = append(sets, group(recs))
	}
	var names []string
	for w := range sets[0] {
		names = append(names, w)
	}
	sort.Strings(names)
	fmt.Printf("%-14s %-14s %8s %12s %8s", "workload", "metric", "bound", "base_median", "spread")
	if len(sets) == 2 {
		fmt.Printf(" %12s %8s %8s  %s", "new_median", "spread", "change", "verdict")
	}
	fmt.Println()
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			base := sets[0][w][m.Name]
			if len(base) == 0 {
				continue
			}
			bm, bs := median(base), spread(base)
			fmt.Printf("%-14s %-14s %8.2f %12.4f %8.3f", w, m.Name, m.Bound, bm, bs)
			if len(sets) == 2 {
				nv := sets[1][w][m.Name]
				if len(nv) == 0 {
					fmt.Println("  (no new runs)")
					continue
				}
				nm, ns := median(nv), spread(nv)
				change := (nm - bm) / bm
				worse := change
				if m.Better == "higher" {
					worse = -change
				}
				verdict := "within bound"
				switch {
				case separated(base, nv, m.Better):
					verdict = "every new run better"
				case bs > m.Bound || ns > m.Bound:
					verdict = "unresolved (spread above bound)"
				case worse > m.Bound:
					verdict = "WORSE"
				}
				fmt.Printf(" %12.4f %8.3f %+8.3f  %s", nm, ns, change, verdict)
			}
			fmt.Println()
		}
	}
	return nil
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(sorted(xs))
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// separated reports whether every new value beats every base value.
func separated(base, nv []float64, better string) bool {
	bs, ns := sorted(base), sorted(nv)
	if strings.EqualFold(better, "higher") {
		return ns[0] > bs[len(bs)-1]
	}
	return ns[len(ns)-1] < bs[0]
}

package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// This file renders the registry in the Prometheus text exposition format
// (version 0.0.4) for /metrics:
//
//   - counters export as `capsim_<name>_total` with `# TYPE ... counter`;
//   - log2 histograms export as native Prometheus histograms — cumulative
//     `_bucket{le="..."}` series over the non-empty power-of-two bounds plus
//     the mandatory `le="+Inf"`, `_sum`, and `_count` — with the registry's
//     p50/p99 quantile estimates as companion gauges (`_p50`, `_p99`), since
//     text-format histograms carry no quantiles of their own;
//   - one `capsim_build_info{...} 1` gauge carries toolchain provenance, the
//     standard info-metric idiom (label values escaped per the format: `\`,
//     `"` and newline).
//
// Metric names mangle the registry's dotted names (`sweep.jobs` →
// `capsim_sweep_jobs_total`); the run manifest (manifest.go) keeps the
// original names.

// promName mangles a registry metric name into a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("capsim_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value per the text exposition format.
func promEscape(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// WritePrometheus renders snapshot s in the text exposition format. Metrics
// render in sorted name order so output is deterministic (tests diff it).
func WritePrometheus(w io.Writer, s Snapshot, build BuildInfo) {
	for _, n := range s.SortedCounterNames() {
		pn := promName(n) + "_total"
		fmt.Fprintf(w, "# HELP %s capsim counter %s\n", pn, n)
		fmt.Fprintf(w, "# TYPE %s counter\n", pn)
		fmt.Fprintf(w, "%s %d\n", pn, s.Counters[n])
	}
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		pn := promName(n)
		fmt.Fprintf(w, "# HELP %s capsim histogram %s\n", pn, n)
		fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
		// Cumulative buckets over the histogram's non-empty upper bounds.
		bounds := make([]int64, 0, len(h.Bkts))
		for ub := range h.Bkts {
			bounds = append(bounds, ub)
		}
		sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
		var cum int64
		for _, ub := range bounds {
			cum += h.Bkts[ub]
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, ub, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", pn, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", pn, h.Count)
		// Quantile estimates as companion gauges (log2-bucket upper bounds).
		for _, q := range []struct {
			suffix string
			v      int64
		}{{"_p50", h.P50}, {"_p99", h.P99}} {
			qn := pn + q.suffix
			fmt.Fprintf(w, "# TYPE %s gauge\n", qn)
			fmt.Fprintf(w, "%s %d\n", qn, q.v)
		}
	}
	fmt.Fprintf(w, "# HELP capsim_build_info build provenance of the running capsim binary\n")
	fmt.Fprintf(w, "# TYPE capsim_build_info gauge\n")
	fmt.Fprintf(w, "capsim_build_info{go_version=\"%s\",goos=\"%s\",goarch=\"%s\",revision=\"%s\"} 1\n",
		promEscape(build.GoVersion), promEscape(build.GOOS), promEscape(build.GOARCH), promEscape(build.VCSRevision))
}

// Metrics is the live /metrics handler that the experiment API server
// (internal/server, `capsim -serve-api`) mounts: the Default registry in
// Prometheus text exposition format. It only reads atomics, so it cannot
// perturb a run, and nothing in a run waits on it.
func Metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, TakeSnapshot(), ReadBuildInfo())
}

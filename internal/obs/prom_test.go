package obs

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// promMetric is one parsed sample line.
type promMetric struct {
	name   string
	labels map[string]string
	value  float64
}

// parsePromText is a minimal Prometheus text-format (0.0.4) parser: it
// validates the line grammar the format requires — `# TYPE`/`# HELP`
// comments, `name{label="value",...} value` samples with escaped label
// values — and returns the samples plus declared types. Any line it cannot
// parse fails the test.
func parsePromText(t *testing.T, text string) (metrics []promMetric, types map[string]string) {
	t.Helper()
	types = map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	validName := func(s string) bool {
		if s == "" {
			return false
		}
		for i := 0; i < len(s); i++ {
			c := s[i]
			ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(i > 0 && c >= '0' && c <= '9')
			if !ok {
				return false
			}
		}
		return true
	}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || (fields[1] != "TYPE" && fields[1] != "HELP") {
				t.Fatalf("malformed comment line: %q", line)
			}
			if !validName(fields[2]) {
				t.Fatalf("invalid metric name in comment: %q", line)
			}
			if fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("invalid TYPE %q in %q", fields[3], line)
				}
				types[fields[2]] = fields[3]
			}
			continue
		}
		m := promMetric{labels: map[string]string{}}
		rest := line
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			m.name = rest[:i]
			end := strings.LastIndexByte(rest, '}')
			if end < i {
				t.Fatalf("unterminated label set: %q", line)
			}
			labelPart := rest[i+1 : end]
			rest = strings.TrimSpace(rest[end+1:])
			for labelPart != "" {
				eq := strings.IndexByte(labelPart, '=')
				if eq < 0 || eq+1 >= len(labelPart) || labelPart[eq+1] != '"' {
					t.Fatalf("malformed label in %q", line)
				}
				key := labelPart[:eq]
				if !validName(key) {
					t.Fatalf("invalid label name %q in %q", key, line)
				}
				// Scan the quoted value honouring escapes.
				val := strings.Builder{}
				j := eq + 2
				closed := false
				for j < len(labelPart) {
					c := labelPart[j]
					if c == '\\' {
						if j+1 >= len(labelPart) {
							t.Fatalf("dangling escape in %q", line)
						}
						switch labelPart[j+1] {
						case '\\':
							val.WriteByte('\\')
						case '"':
							val.WriteByte('"')
						case 'n':
							val.WriteByte('\n')
						default:
							t.Fatalf("invalid escape \\%c in %q", labelPart[j+1], line)
						}
						j += 2
						continue
					}
					if c == '"' {
						closed = true
						j++
						break
					}
					val.WriteByte(c)
					j++
				}
				if !closed {
					t.Fatalf("unterminated label value in %q", line)
				}
				m.labels[key] = val.String()
				labelPart = strings.TrimPrefix(strings.TrimSpace(labelPart[j:]), ",")
				labelPart = strings.TrimSpace(labelPart)
			}
		} else {
			sp := strings.IndexByte(rest, ' ')
			if sp < 0 {
				t.Fatalf("sample without value: %q", line)
			}
			m.name = rest[:sp]
			rest = strings.TrimSpace(rest[sp:])
		}
		if !validName(m.name) {
			t.Fatalf("invalid metric name %q in %q", m.name, line)
		}
		v, err := parsePromValue(rest)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		m.value = v
		metrics = append(metrics, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return metrics, types
}

func parsePromValue(s string) (float64, error) {
	if s == "+Inf" || s == "-Inf" || s == "NaN" {
		return 0, nil
	}
	return strconv.ParseFloat(s, 64)
}

func find(metrics []promMetric, name string, labels map[string]string) (promMetric, bool) {
	for _, m := range metrics {
		if m.name != name {
			continue
		}
		ok := true
		for k, v := range labels {
			if m.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return m, true
		}
	}
	return promMetric{}, false
}

// promExposed is a counter in the Default registry for the exposition test.
var promExposed = NewCounter("t.prom.exposed")

// /metrics output parses under the minimal text-format parser, declares
// types, and exposes registered counters with mangled names.
func TestPrometheusExpositionParses(t *testing.T) {
	SetEnabled(true)
	defer SetEnabled(false)
	defer Default.Reset()
	promExposed.Add(3)
	// Render the Default registry through the live handler to cover the
	// real serving path end to end.
	srv := httptest.NewServer(http.HandlerFunc(Metrics))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q lacks exposition version", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	metrics, types := parsePromText(t, text)
	if len(metrics) == 0 {
		t.Fatal("no samples")
	}
	if m, ok := find(metrics, "capsim_t_prom_exposed_total", nil); !ok || m.value != 3 {
		t.Fatalf("capsim_t_prom_exposed_total missing or not 3:\n%s", text)
	}
	if types["capsim_t_prom_exposed_total"] != "counter" {
		t.Fatal("registered counter's TYPE not counter")
	}
	if m, ok := find(metrics, "capsim_build_info", nil); !ok || m.value != 1 || m.labels["go_version"] == "" {
		t.Fatalf("capsim_build_info malformed: %+v", m)
	}
}

// Histogram buckets are cumulative, end at +Inf == count, and quantile
// companion gauges appear.
func TestPrometheusHistogramCumulative(t *testing.T) {
	r := &Registry{}
	h := r.NewHistogram("test.lat_ns")
	SetEnabled(true)
	defer SetEnabled(false)
	for _, v := range []int64{1, 2, 3, 100, 1000, 1000000} {
		h.Observe(v)
	}
	var b strings.Builder
	WritePrometheus(&b, r.TakeSnapshot(), BuildInfo{GoVersion: "gotest"})
	metrics, types := parsePromText(t, b.String())

	if types["capsim_test_lat_ns"] != "histogram" {
		t.Fatalf("TYPE missing:\n%s", b.String())
	}
	var lastCum float64 = -1
	var bucketCount int
	for _, m := range metrics {
		if m.name != "capsim_test_lat_ns_bucket" {
			continue
		}
		bucketCount++
		if m.value < lastCum {
			t.Fatalf("bucket not cumulative: %v after %v", m.value, lastCum)
		}
		lastCum = m.value
	}
	if bucketCount < 2 {
		t.Fatalf("expected several buckets, got %d", bucketCount)
	}
	inf, ok := find(metrics, "capsim_test_lat_ns_bucket", map[string]string{"le": "+Inf"})
	if !ok || inf.value != 6 {
		t.Fatalf("+Inf bucket wrong: %+v", inf)
	}
	cnt, ok := find(metrics, "capsim_test_lat_ns_count", nil)
	if !ok || cnt.value != 6 {
		t.Fatalf("_count wrong: %+v", cnt)
	}
	sum, ok := find(metrics, "capsim_test_lat_ns_sum", nil)
	if !ok || sum.value != 1001106 {
		t.Fatalf("_sum wrong: %+v", sum)
	}
	if _, ok := find(metrics, "capsim_test_lat_ns_p50", nil); !ok {
		t.Fatal("p50 companion gauge missing")
	}
	if _, ok := find(metrics, "capsim_test_lat_ns_p99", nil); !ok {
		t.Fatal("p99 companion gauge missing")
	}
}

// Label values with quotes, backslashes and newlines round-trip through the
// escaper and the parser.
func TestPrometheusLabelEscaping(t *testing.T) {
	raw := "weird\"value\\with\nnewline"
	var b strings.Builder
	WritePrometheus(&b, Snapshot{}, BuildInfo{GoVersion: raw, GOOS: "linux", GOARCH: "amd64"})
	metrics, _ := parsePromText(t, b.String())
	m, ok := find(metrics, "capsim_build_info", nil)
	if !ok {
		t.Fatalf("build_info missing:\n%s", b.String())
	}
	if m.labels["go_version"] != raw {
		t.Fatalf("escaping round-trip failed: %q != %q", m.labels["go_version"], raw)
	}
}

// promName mangles dotted registry names deterministically.
func TestPromName(t *testing.T) {
	cases := map[string]string{
		"sweep.jobs":     "capsim_sweep_jobs",
		"server.req-err": "capsim_server_req_err",
		"a.b.c":          "capsim_a_b_c",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

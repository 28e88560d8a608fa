// Command bench is capsim's benchmark harness. It builds ./cmd/capsim from
// the enclosing checkout, runs one named workload for a fixed measurement
// window, checks every output the program produces, and prints the metrics.
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":4,"failed":0,"metrics":{"wall_p50_ms":{"value":5012.3,"unit":"ms"},...}}
//
// With -trace 1 it runs the serial, in-process per-layer trace instead and
// reports the per-layer metrics (layers.go). README.md describes the
// workloads, the metrics, and how to compare two commits.
//
// Usage:
//
//	sh bench/run.sh --workload registry-cold --seed 1998 --seconds 15 --trace 0
//	cd bench && go run . -workload all -out runs.jsonl
//	cd bench && go run . -workload registry-cold -trace 1
//	cd bench && go run . -compare baseline.json,runs.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value; the JSON shape is the result-line contract.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload with -trace 0. Each workload
// defines an operation (a capsim process for the CLI workloads, one HTTP
// request for api-mixed); see README.md.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
}

// record is one run as appended to the -out file: the result line plus
// what is needed to interpret and compare it later.
type record struct {
	Workload string          `json:"workload"`
	Seed     uint64          `json:"seed"`
	Seconds  float64         `json:"seconds"`
	Trace    bool            `json:"trace"`
	Host     host            `json:"host"`
	Result   result          `json:"result"`
	Dists    map[string]dist `json:"dists,omitempty"`
	Digest   string          `json:"digest,omitempty"`
	Problems []string        `json:"problems,omitempty"`
	Spans    []span          `json:"spans,omitempty"`
}

// host identifies the machine and code a record was measured on.
type host struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == spawnArg {
		os.Exit(spawn(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Uint64("seed", 1998, "seed for every generated input; passed to capsim as -seed")
		seconds = flag.Float64("seconds", 15, "measurement window per workload, in seconds")
		traced  = flag.Int("trace", 0, "1 = run the per-layer trace instead of the end-to-end measurement")
		out     = flag.String("out", "", "append one JSON record per run to this file")
		compare = flag.String("compare", "", "compare recorded runs: BASE[,NEW] record files (JSON lines or a JSON array)")
	)
	flag.Parse()
	if *compare != "" {
		if err := runCompare(strings.Split(*compare, ",")); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	var selected []workloadSpec
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *traced, *seconds)
		os.Exit(2)
	}
	if *traced == 1 {
		// The per-layer trace is the same for every workload: run it once.
		selected = selected[:1]
	}
	// The load is sized for two CPUs: children run with GOMAXPROCS=2 and
	// the in-process trace is serial.
	runtime.GOMAXPROCS(2)
	if err := run(selected, *seed, *seconds, *traced == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run measures each selected workload and prints its result. A harness
// failure (the build, a missing binary) returns an error before any result
// is printed; a program failure is a result with correct=false.
func run(selected []workloadSpec, seed uint64, seconds float64, traced bool, out string) error {
	b, err := newBench(seed, time.Duration(seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	defer b.close()
	h := hostInfo(b.root)
	hj, _ := json.Marshal(h)
	fmt.Fprintf(os.Stderr, "bench: host %s seed %d\n", hj, seed)
	for _, w := range selected {
		var o *outcome
		if traced {
			o, err = b.traceRun()
		} else {
			o, err = w.run(b)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rec := record{
			Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced, Host: h,
			Result: o.result(traced), Dists: o.dists, Digest: o.digest, Problems: o.problems, Spans: o.spans,
		}
		for _, p := range o.problems {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, p)
		}
		printTable(w.name, rec)
		line, err := json.Marshal(rec.Result)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if out != "" {
			if err := appendRecord(out, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// result converts the outcome into the result line, in the metric set the
// mode promises.
func (o *outcome) result(traced bool) result {
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	r := result{
		Correct:   o.failed == 0 && len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: o.metrics[d.name], Unit: d.unit}
	}
	return r
}

// printTable writes the human-readable summary of one run.
func printTable(name string, rec record) {
	fmt.Printf("== %s (seed %d, %gs window, trace=%v): correct=%v attempted=%d failed=%d\n",
		name, rec.Seed, rec.Seconds, rec.Trace, rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed)
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		line := fmt.Sprintf("  %-28s %14.4f %s", n, m.Value, m.Unit)
		if d, ok := rec.Dists[n]; ok {
			line += fmt.Sprintf("   (n=%d min=%.4g p25=%.4g p50=%.4g p75=%.4g max=%.4g)", d.N, d.Min, d.P25, d.Median, d.P75, d.Max)
		}
		fmt.Println(line)
	}
	if rec.Digest != "" {
		fmt.Printf("  render sha256 %s\n", rec.Digest)
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostInfo collects the host metadata stamped on every record. The commit
// is empty unless root itself is a git checkout: git is kept from looking
// above it.
func hostInfo(root string) host {
	h := host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	git := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := git.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return h
}

// findRoot returns the capsim checkout the harness measures: the nearest
// directory at or above the working directory that holds cmd/capsim.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "capsim", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no capsim checkout (cmd/capsim) at or above the working directory")
		}
		dir = parent
	}
}

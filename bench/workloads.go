package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workloadSpec is one named benchmark input. README.md and BENCHMARK.json
// record why each exists and which layers it exercises or bypasses.
type workloadSpec struct {
	name string
	run  func(*bench) (*outcome, error)
}

var workloads = []workloadSpec{
	{"registry-cold", (*bench).registryCold},
	{"registry-warm", (*bench).registryWarm},
	{"zoo-ledger", (*bench).zooLedger},
	{"api-mixed", (*bench).apiMixed},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// inputs are the program inputs every workload derives from the seed. The
// self-test shrinks them; everything else uses defaultInputs.
type inputs struct {
	// experiments is the -experiment list of the registry workloads and of
	// the per-layer trace.
	experiments string
	// Budgets of the CLI workloads and the trace (capsim -cache-refs,
	// -cache-warm, -queue-instrs): half the paper-reproduction defaults, so
	// one cold registry run fits the measurement window several times.
	cacheRefs, cacheWarm, queueInstrs int64
	// setupReps is how many times each workload sets up; setup_s is the
	// median.
	setupReps int
	// hot are the API requests primed during set-up and then repeated
	// (response-cache hits). hot[0] must name only an experiment: its
	// response is checked against the CLI's render.
	hot []apiRequest
	// fresh are the shapes of the uncached API requests; each is sent with
	// a seed no earlier request used.
	fresh []apiRequest
	// traceRequests is the length of the traced run's API session.
	traceRequests int
}

// apiRequest is a POST /v1/run body.
type apiRequest map[string]any

func defaultInputs() inputs {
	fresh := []apiRequest{
		{"experiment": "fig12"},
		{"experiment": "fig10", "queue_instrs": 20000},
		{"experiment": "fig7", "cache_refs": 50000, "cache_warm": 10000},
		{"experiment": "ablation-combined", "queue_instrs": 20000},
		{"experiment": "zoo", "queue_instrs": 15000},
	}
	return inputs{
		experiments:   "all",
		cacheRefs:     200_000,
		cacheWarm:     50_000,
		queueInstrs:   75_000,
		setupReps:     3,
		hot:           append(append([]apiRequest{}, fresh...), apiRequest{"experiment": "fig2"}),
		fresh:         fresh,
		traceRequests: 8 * apiBatch,
	}
}

var benchInputs = defaultInputs()

// tamper, when set, rewrites every render the harness checks. Only the
// self-test sets it, to prove a corrupted render is counted as a failure.
var tamper func([]byte) []byte

// childTimeout bounds one capsim process, so a hung child cannot hold a run
// past its time limit.
const childTimeout = 150 * time.Second

// bench is one harness invocation: the checkout, the capsim binary built
// from it, and a scratch directory removed on close.
type bench struct {
	root, bin, work string
	seed            uint64
	window          time.Duration
}

// newBench builds cmd/capsim from the checkout into .bench_build/.
func newBench(seed uint64, window time.Duration) (*bench, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{root: root, bin: filepath.Join(dir, "capsim"), seed: seed, window: window}
	build := exec.Command("go", "build", "-o", b.bin, "./cmd/capsim")
	build.Dir = root
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("building cmd/capsim: %w", err)
	}
	if b.work, err = os.MkdirTemp(dir, "run-"); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *bench) close() { os.RemoveAll(b.work) }

func (b *bench) tempDir() (string, error) { return os.MkdirTemp(b.work, "store-") }

// outcome is what a workload or the trace measured and found wrong.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	dists             map[string]dist
	digest            string
	spans             []span
}

func (o *outcome) problem(format string, args ...any) {
	const keep = 20
	if len(o.problems) < keep {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// proc is one finished capsim process. meas, when the process ran under a
// meter, receives its normalized times once the meter probes.
type proc struct {
	wall, cpu time.Duration
	rssKB     int64
	stdout    []byte
	meas      *measure
}

func childEnv() []string { return append(os.Environ(), "GOMAXPROCS=2") }

// spawnArg re-executes the harness as a thin parent for one capsim process.
// A child's peak RSS as wait4 reports it includes the address space it was
// forked from (Go forks with vfork, and exec folds the shared parent's
// high-water mark into the child's figure), so a harness whose own RSS
// exceeds a warm capsim run's would report itself. The thin parent is a
// fresh, small process: it runs capsim, writes capsim's pid to file
// descriptor 3, and after the exit capsim's own wall time, CPU time and
// peak RSS.
const spawnArg = "-spawn-child"

// childStats is what the thin parent reports.
type childStats struct {
	PID                     int   `json:",omitempty"`
	WallNS, CPUNS, MaxRSSKB int64 `json:",omitempty"`
}

// spawn is the thin parent's main: it runs args and returns the child's
// exit status.
func spawn(args []string) int {
	runtime.LockOSThread() // Pdeathsig follows the thread that forked
	report := json.NewEncoder(os.NewFile(3, "stats"))
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	err := cmd.Start()
	if err == nil {
		err = report.Encode(childStats{PID: cmd.Process.Pid})
		if werr := cmd.Wait(); err == nil {
			err = werr
		}
	}
	st := childStats{WallNS: time.Since(t0).Nanoseconds()}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			st.CPUNS = ru.Utime.Nano() + ru.Stime.Nano()
			st.MaxRSSKB = ru.Maxrss
		}
	}
	if jerr := report.Encode(st); jerr != nil || err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err, jerr)
		return 1
	}
	return 0
}

// capsim runs the binary to completion under a thin parent and returns its
// wall time, CPU time (user+sys), peak RSS and standard output. Under a
// meter, the process is paused whenever the meter is due to probe, and its
// work is recorded piece by piece; paused time is not part of its wall.
func (b *bench) capsim(m *meter, args ...string) (proc, error) {
	self, err := os.Executable()
	if err != nil {
		return proc{}, err
	}
	statsR, statsW, err := os.Pipe()
	if err != nil {
		return proc{}, err
	}
	defer statsR.Close()
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, append([]string{spawnArg, b.bin}, args...)...)
	cmd.Env = childEnv()
	cmd.ExtraFiles = []*os.File{statsW}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Start()
	statsW.Close()
	p := proc{}
	if m != nil {
		p.meas = &measure{}
	}
	var st childStats
	if err == nil {
		var paused, piecesWall, piecesCPU time.Duration
		st, paused, piecesWall, piecesCPU = b.watch(m, p.meas, bufio.NewReader(statsR))
		err = cmd.Wait()
		p.wall, p.cpu, p.rssKB = time.Duration(st.WallNS)-paused, time.Duration(st.CPUNS), st.MaxRSSKB
		if m != nil {
			m.add(p.meas, p.wall-piecesWall, p.cpu-piecesCPU)
		}
	}
	p.stdout = stdout.Bytes()
	if err == nil && st.WallNS == 0 {
		err = fmt.Errorf("no report from the thin parent")
	}
	if err != nil {
		return p, fmt.Errorf("capsim %s: %v: %s", strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	if tamper != nil {
		p.stdout = tamper(p.stdout)
	}
	return p, nil
}

// watch follows one thin parent's report until capsim exits. Under a meter
// it pauses capsim for each probe that falls due, recording the piece of
// work done since the last pause. It returns the final report, the time
// capsim spent paused, and the wall and CPU time of the recorded pieces.
func (b *bench) watch(m *meter, meas *measure, rd *bufio.Reader) (st childStats, paused, wall, cpu time.Duration) {
	line, err := rd.ReadBytes('\n')
	var hello childStats
	if err != nil || json.Unmarshal(line, &hello) != nil {
		return st, 0, 0, 0
	}
	final := make(chan []byte, 1)
	go func() {
		line, _ := rd.ReadBytes('\n')
		final <- line
	}()
	pieceStart := time.Now()
	for running := m != nil; running; {
		timer := time.NewTimer(max(m.untilDue(), 0))
		select {
		case line = <-final:
			timer.Stop()
			json.Unmarshal(line, &st)
			return st, paused, wall, cpu
		case stopAt := <-timer.C:
			if !pause(hello.PID) {
				syscall.Kill(hello.PID, syscall.SIGCONT)
				running = false
				continue
			}
			c, w := procCPU(hello.PID), stopAt.Sub(pieceStart)
			m.add(meas, w, c-cpu)
			m.probe()
			syscall.Kill(hello.PID, syscall.SIGCONT)
			pieceStart = time.Now()
			paused += pieceStart.Sub(stopAt)
			wall += w
			cpu = c
		}
	}
	json.Unmarshal(<-final, &st)
	return st, paused, wall, cpu
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// footer matches the per-experiment timing line capsim prints after each
// render, the only stdout bytes allowed to differ between runs.
var footer = regexp.MustCompile(`(?m)^\([a-z0-9-]+ in [0-9]+\.[0-9]s\)\n\n`)

func stripFooters(out []byte) []byte { return footer.ReplaceAll(out, nil) }

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// budgetArgs are the capsim flags every CLI workload shares.
func (b *bench) budgetArgs() []string {
	return []string{
		"-seed", fmt.Sprint(b.seed),
		"-cache-refs", fmt.Sprint(benchInputs.cacheRefs),
		"-cache-warm", fmt.Sprint(benchInputs.cacheWarm),
		"-queue-instrs", fmt.Sprint(benchInputs.queueInstrs),
	}
}

func (b *bench) registryArgs(store string) []string {
	return append([]string{"-experiment", benchInputs.experiments, "-parallel", "2", "-study-cache", store}, b.budgetArgs()...)
}

// coldRegistry is one registry run against a fresh, empty study cache.
func (b *bench) coldRegistry(m *meter) (proc, error) {
	dir, err := b.tempDir()
	if err != nil {
		return proc{}, err
	}
	defer os.RemoveAll(dir)
	return b.capsim(m, b.registryArgs(dir)...)
}

// cliWorkload sets up benchInputs.setupReps times, then runs op back to
// back until the measurement window has passed (an operation started inside
// it runs to completion). Every process must exit 0. When setupRenders is
// set, the first set-up's render is the reference every later set-up and
// every operation must reproduce, footers stripped; otherwise the first
// operation's render is. The reference is returned. Times are normalized
// to the reference host speed piece by piece under a meter (probe.go).
func (b *bench) cliWorkload(o *outcome, setup func(*meter) (proc, error), setupRenders bool, op func(*meter) (proc, error)) []byte {
	var ref []byte
	m := newMeter()
	var setups []*measure
	for r := 0; r < benchInputs.setupReps; r++ {
		p, err := setup(m)
		m.probe()
		setups = append(setups, p.meas)
		got := stripFooters(p.stdout)
		switch {
		case err != nil:
			o.problem("set-up: %v", err)
		case !setupRenders:
		case ref == nil:
			ref = got
		case !bytes.Equal(got, ref):
			o.problem("set-up %d rendered %.12s, the first set-up %.12s", r+1, sha(got), sha(ref))
		}
	}
	var ok []proc
	end := time.Now().Add(b.window)
	for first := true; first || time.Now().Before(end); first = false {
		o.attempted++
		p, err := op(m)
		got := stripFooters(p.stdout)
		if err == nil && ref == nil {
			ref = got
		}
		switch {
		case err != nil:
			o.failed++
			o.problem("%v", err)
		case !bytes.Equal(got, ref):
			o.failed++
			o.problem("operation %d rendered %.12s, the reference %.12s", o.attempted, sha(got), sha(ref))
		default:
			ok = append(ok, p)
		}
		// A probe after every operation: a short one (a warm run takes
		// 18 ms) is then scaled by the host speed right around it, not by
		// a factor shared with the rest of a half-second segment.
		m.probe()
	}
	var setupS, wall, rawWall, cpu, rss []float64
	var busy float64
	for _, s := range setups {
		if s != nil {
			setupS = append(setupS, s.wall/1000)
		}
	}
	for _, p := range ok {
		wall = append(wall, p.meas.wall)
		rawWall = append(rawWall, p.meas.rawWall)
		cpu = append(cpu, p.meas.cpu)
		rss = append(rss, float64(p.rssKB)/1024)
		busy += p.meas.wall / 1000
	}
	o.digest = sha(ref)
	o.metrics = map[string]float64{
		"setup_s":       median(setupS),
		"wall_p50_ms":   median(wall),
		"cpu_ms_per_op": sum(cpu) / float64(max(len(cpu), 1)),
		"peak_rss_mb":   median(rss),
		"ops_per_s":     float64(len(wall)) / max(busy, 1e-9),
	}
	o.dists = map[string]dist{
		"setup_s":       summarize(setupS),
		"wall_p50_ms":   summarize(wall),
		"raw_wall_ms":   summarize(rawWall),
		"cpu_ms_per_op": summarize(cpu),
		"peak_rss_mb":   summarize(rss),
		"speed_factor":  summarize(m.factors),
	}
	return ref
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// startup is the set-up of the workloads that prime nothing: start capsim
// and check that its registry lists the experiments the workload runs.
func (b *bench) startup(ids []string) func(*meter) (proc, error) {
	return func(m *meter) (proc, error) {
		p, err := b.capsim(m, "-list")
		for _, id := range ids {
			if err == nil && !bytes.Contains(append([]byte("\n"), p.stdout...), []byte("\n"+id+" ")) {
				err = fmt.Errorf("capsim -list does not list %s", id)
			}
		}
		return p, err
	}
}

// registryCold: each operation renders every experiment from an empty
// study cache.
func (b *bench) registryCold() (*outcome, error) {
	o := &outcome{}
	b.cliWorkload(o, b.startup(registryIDs()), false, b.coldRegistry)
	return o, nil
}

// registryWarm: a set-up primes a fresh study cache with one cold run; each
// operation re-renders from the last primed cache and must match the cold
// render.
func (b *bench) registryWarm() (*outcome, error) {
	o := &outcome{}
	var store string
	prime := func(m *meter) (proc, error) {
		os.RemoveAll(store)
		var err error
		if store, err = b.tempDir(); err != nil {
			return proc{}, err
		}
		return b.capsim(m, b.registryArgs(store)...)
	}
	warm := func(m *meter) (proc, error) { return b.capsim(m, b.registryArgs(store)...) }
	b.cliWorkload(o, prime, true, warm)
	return o, nil
}

// zooLedger: each operation races the policy zoo with the flight recorder
// on. Afterwards the last ledger must replay, through capsim -report, into
// exactly the league tables the run rendered.
func (b *bench) zooLedger() (*outcome, error) {
	o := &outcome{}
	ledger := filepath.Join(b.work, "zoo.ledger.gz")
	args := append([]string{"-experiment", "zoo", "-parallel", "2", "-ledger-out", ledger}, b.budgetArgs()...)
	ref := b.cliWorkload(o, b.startup([]string{"zoo"}), false, func(m *meter) (proc, error) { return b.capsim(m, args...) })
	if err := b.checkLedger(ledger, ref); err != nil {
		o.problem("ledger: %v", err)
	}
	return o, nil
}

// checkLedger verifies that capsim -report over the ledger reproduces the
// zoo render's tables.
func (b *bench) checkLedger(ledger string, zooRender []byte) error {
	rep, err := b.capsim(nil, "-report", ledger)
	if err != nil {
		return err
	}
	// The report opens with a header paragraph naming its inputs; the
	// render opens with the experiment's title line.
	_, got, _ := strings.Cut(string(rep.stdout), "\n\n")
	_, want, _ := strings.Cut(string(zooRender), "\n")
	if strings.TrimSpace(got) != strings.TrimSpace(want) || want == "" {
		return fmt.Errorf("capsim -report output %.12s differs from the zoo render %.12s", sha([]byte(got)), sha([]byte(want)))
	}
	return nil
}

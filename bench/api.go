package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// apiClients is the closed loop's width: each client sends its next request
// only after the previous response arrived, over its own connection.
const apiClients = 2

// apiBatch is one round of the request mix: apiBatch-apiClients hot
// repeats, then apiClients fresh runs, about half a second's worth. Hot
// repeats cost half a millisecond against half a second for a fresh run, so
// they are cheap samples: many per fresh run keep the median latency of one
// run steady. The two kinds run as separate phases, the clients draining
// and the harness probing the host after each, so a hot repeat times the
// response cache, not a simulator run that shares the CPUs with it.
const apiBatch = 32

// apiRate sizes api-mixed: the run sends apiRate requests per second of the
// measurement window (three fresh runs a second, about what two CPUs
// serve), a fixed seeded sequence, so every run does the same work and the
// server's memory, which grows with each fresh seed, is comparable between
// runs.
const apiRate = 3 * apiBatch / apiClients

// apiMixed: a capsim -serve-api child under a closed loop of apiClients
// clients. A set-up boots the server and primes the hot requests; the
// operations are requests, mostly hot repeats answered from the response
// cache, the rest fresh small-budget runs. The run ends with SIGTERM and a
// drained exit 0.
func (b *bench) apiMixed() (*outcome, error) {
	o := &outcome{}
	s := b.apiSession(o, benchInputs.setupReps, max(1, int64(b.window.Seconds()*apiRate)))
	o.metrics = map[string]float64{
		"setup_s":       median(s.setup),
		"wall_p50_ms":   median(s.lat),
		"cpu_ms_per_op": s.cpu / float64(max(o.attempted, 1)),
		"peak_rss_mb":   median(s.setupRSS),
		"ops_per_s":     float64(o.attempted) / max(s.busy, 1e-9),
	}
	o.dists = map[string]dist{
		"setup_s":      summarize(s.setup),
		"wall_p50_ms":  summarize(s.lat),
		"raw_wall_ms":  summarize(s.rawLat),
		"hit_ms":       summarize(s.hit),
		"fresh_ms":     summarize(s.fresh),
		"peak_rss_mb":  summarize(s.setupRSS),
		"rss_end_mb":   summarize([]float64{s.rssEndMB}),
		"speed_factor": summarize(s.factors),
	}
	o.digest = sha([]byte(s.primed[0]))
	return o, nil
}

// apiStats is what one server session measured. Times are normalized to
// the reference host speed (probe.go).
type apiStats struct {
	setup           []float64          // seconds per boot+prime
	setupRSS        []float64          // server peak RSS after priming, MB
	lat, hit, fresh []float64          // request latency, ms
	rawLat          []float64          // request latency as measured, ms
	overhead        []float64          // fresh latency minus the server's own run time, ms
	primed          []string           // render of each hot request
	busy            float64            // seconds the request loop ran
	cpu             float64            // server CPU spent in the loop, ms
	rssEndMB        float64            // server peak RSS after the loop, MB
	prom            map[string]float64 // final /metrics scrape
	factors         []float64
}

// apiSession boots the server reps times (keeping the last), checks the
// reference response against the CLI, then sends the first n requests of
// the seeded mix, batch by batch: the hot repeats, then the fresh runs,
// probing the host after each phase.
func (b *bench) apiSession(o *outcome, reps int, n int64) *apiStats {
	s := &apiStats{primed: make([]string, len(benchInputs.hot))}
	tr := &http.Transport{MaxConnsPerHost: apiClients, MaxIdleConnsPerHost: apiClients}
	client := &http.Client{Transport: tr, Timeout: childTimeout}
	defer tr.CloseIdleConnections()
	m := newMeter()
	defer func() { s.factors = m.factors }()

	var srv *apiServer
	for r := 0; r < reps; r++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				o.problem("set-up server exit: %v", err)
			}
			tr.CloseIdleConnections()
		}
		t0 := time.Now()
		var err error
		if srv, err = b.startServer(); err != nil {
			o.problem("%v", err)
			return s
		}
		for i, req := range benchInputs.hot {
			res := srv.post(client, mustJSON(req))
			if res.err != nil || res.status != http.StatusOK {
				o.problem("priming %v: status %d %v", req, res.status, res.err)
			}
			s.primed[i] = res.resp.Render
		}
		var setup measure
		m.add(&setup, time.Since(t0), 0)
		m.probe()
		s.setup = append(s.setup, setup.wall/1000)
		s.setupRSS = append(s.setupRSS, float64(procPeakRSSKB(srv.cmd.Process.Pid))/1024)
	}
	b.checkHotReference(o, s.primed[0])

	type sample struct {
		lat, overhead *measure
		hot           int
	}
	var (
		samples []sample
		loop    measure
		mu      sync.Mutex
	)
	pid := srv.cmd.Process.Pid
	m.probe()
	// phase sends requests [lo, hi) from the clients, then probes.
	phase := func(lo, hi int64) {
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		next.Store(lo)
		cpu0 := procCPU(pid)
		t0 := time.Now()
		for c := 0; c < apiClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < hi; i = next.Add(1) - 1 {
					body, hot, id := b.request(i)
					res := srv.post(client, body)
					mu.Lock()
					if checkResponse(o, s.primed, res, hot, id) {
						x := sample{lat: &measure{}, hot: hot}
						m.add(x.lat, res.lat, 0)
						if hot < 0 {
							x.overhead = &measure{}
							m.add(x.overhead, res.lat-time.Duration(res.resp.WallNS), 0)
						}
						samples = append(samples, x)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		m.add(&loop, time.Since(t0), procCPU(pid)-cpu0)
		m.probe()
	}
	for start := int64(0); start < n; start += apiBatch {
		fresh := min(start+apiBatch-apiClients, n)
		phase(start, fresh)
		if end := min(start+apiBatch, n); fresh < end {
			phase(fresh, end)
		}
	}
	for _, x := range samples {
		s.lat = append(s.lat, x.lat.wall)
		s.rawLat = append(s.rawLat, x.lat.rawWall)
		if x.hot >= 0 {
			s.hit = append(s.hit, x.lat.wall)
		} else {
			s.fresh = append(s.fresh, x.lat.wall)
			s.overhead = append(s.overhead, x.overhead.wall)
		}
	}
	s.busy, s.cpu = loop.wall/1000, loop.cpu
	s.prom = srv.scrape(client)
	s.rssEndMB = float64(procPeakRSSKB(pid)) / 1024
	if err := srv.stop(); err != nil {
		o.problem("server did not drain to exit 0: %v", err)
	}
	return s
}

// request returns the i-th request body of the mix, whether it is a hot
// repeat, and which hot request or fresh experiment it is. The fresh
// requests cycle through the fresh shapes, so every run sends the same mix;
// the seed picks the hot requests and seeds the fresh runs.
func (b *bench) request(i int64) (body []byte, hot int, id string) {
	f := i%apiBatch - (apiBatch - apiClients) // which fresh run of its batch
	if f < 0 {
		h := rand.New(rand.NewPCG(b.seed, uint64(i))).IntN(len(benchInputs.hot))
		return mustJSON(benchInputs.hot[h]), h, ""
	}
	req := apiRequest{"seed": b.seed + 1 + uint64(i)}
	for k, v := range benchInputs.fresh[(i/apiBatch*apiClients+f)%int64(len(benchInputs.fresh))] {
		req[k] = v
	}
	return mustJSON(req), -1, req["experiment"].(string)
}

// checkResponse counts one response and reports whether it is correct. A hot
// repeat must be a cache hit with the primed render byte for byte; a fresh
// request must be computed and render the experiment it named.
func checkResponse(o *outcome, primed []string, res apiResult, hot int, id string) bool {
	o.attempted++
	var bad string
	switch {
	case res.err != nil || res.status != http.StatusOK:
		bad = fmt.Sprintf("status %d %v %s", res.status, res.err, res.resp.Error)
	case hot >= 0 && (!res.resp.Cached || res.resp.Render != primed[hot]):
		bad = fmt.Sprintf("hot request %d: cached=%v, render %.12s, primed %.12s", hot, res.resp.Cached, sha([]byte(res.resp.Render)), sha([]byte(primed[hot])))
	case hot < 0 && (res.resp.Cached || !strings.HasPrefix(res.resp.Render, "=== "+id+":")):
		bad = fmt.Sprintf("fresh %s request: cached=%v, render starts %.40q", id, res.resp.Cached, res.resp.Render)
	}
	if bad != "" {
		o.failed++
		o.problem("request %d: %s", o.attempted, bad)
	}
	return bad == ""
}

// checkHotReference compares the first hot response with the CLI's render
// of the same experiment at the same seed.
func (b *bench) checkHotReference(o *outcome, primed string) {
	id := benchInputs.hot[0]["experiment"].(string)
	cli, err := b.capsim(nil, "-experiment", id, "-seed", fmt.Sprint(b.seed))
	if err != nil {
		o.problem("reference: %v", err)
		return
	}
	if got := stripFooters(cli.stdout); string(got) != primed {
		o.problem("API render of %s %.12s differs from the CLI's %.12s", id, sha([]byte(primed)), sha(got))
	}
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// apiServer is a running capsim -serve-api child.
type apiServer struct {
	cmd     *exec.Cmd
	cancel  context.CancelFunc
	url     string
	done    chan struct{} // closed once Wait returned
	waitErr error
}

// apiAddr matches the line the server prints once it listens.
var apiAddr = regexp.MustCompile(`experiment API on (http://\S+) `)

// addrLog collects the server's stderr and reports the listen URL once.
type addrLog struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	found chan string
	sent  bool
}

func (l *addrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if m := apiAddr.FindSubmatch(l.buf.Bytes()); m != nil && !l.sent {
		l.sent = true
		l.found <- string(m[1])
	}
	return len(p), nil
}

func (b *bench) startServer() (*apiServer, error) {
	ctx, cancel := context.WithCancel(context.Background())
	cmd := exec.CommandContext(ctx, b.bin, "-serve-api", "127.0.0.1:0", "-parallel", "1", "-seed", fmt.Sprint(b.seed))
	cmd.Env = childEnv()
	log := &addrLog{found: make(chan string, 1)}
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		cancel()
		return nil, fmt.Errorf("starting the API server: %w", err)
	}
	s := &apiServer{cmd: cmd, cancel: cancel, done: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.done)
	}()
	select {
	case s.url = <-log.found:
		return s, nil
	case <-s.done:
	case <-time.After(30 * time.Second):
	}
	s.stop()
	log.mu.Lock()
	defer log.mu.Unlock()
	return nil, fmt.Errorf("the API server did not come up: %s", lastLine(log.buf.String()))
}

// stop sends SIGTERM and waits for the drained exit; a server that has not
// exited within the drain grace is killed. It returns the exit error.
func (s *apiServer) stop() error {
	select {
	case <-s.done:
	default:
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(30 * time.Second):
			s.cancel()
			<-s.done
		}
	}
	s.cancel()
	return s.waitErr
}

// apiResponse holds the fields of a RunResponse (or ErrorResponse) the
// harness checks.
type apiResponse struct {
	Render string `json:"render"`
	Cached bool   `json:"cached"`
	WallNS int64  `json:"wall_ns"`
	Error  string `json:"error"`
}

type apiResult struct {
	status int
	lat    time.Duration
	resp   apiResponse
	err    error
}

// post sends one run request; the latency covers the whole response body.
func (s *apiServer) post(c *http.Client, body []byte) apiResult {
	t0 := time.Now()
	r, err := c.Post(s.url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return apiResult{err: err}
	}
	data, err := io.ReadAll(r.Body)
	r.Body.Close()
	res := apiResult{status: r.StatusCode, lat: time.Since(t0), err: err}
	if err == nil {
		res.err = json.Unmarshal(data, &res.resp)
	}
	if tamper != nil {
		res.resp.Render = string(tamper([]byte(res.resp.Render)))
	}
	return res
}

// scrape reads the server's Prometheus exposition into name → value.
func (s *apiServer) scrape(c *http.Client) map[string]float64 {
	out := map[string]float64{}
	r, err := c.Get(s.url + "/metrics")
	if err != nil {
		return out
	}
	defer r.Body.Close()
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// procCPU returns the user+sys CPU time process pid has used so far, from
// /proc (clock ticks of 10 ms), or 0 where /proc is unavailable.
func procCPU(pid int) time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name start at field 3; utime
	// and stime are fields 14 and 15.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	u, _ := strconv.ParseInt(f[11], 10, 64)
	k, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(u+k) * 10 * time.Millisecond
}

// procPeakRSSKB returns the peak resident set size (VmHWM) of process pid so
// far, from /proc, or 0 where /proc is unavailable.
func procPeakRSSKB(pid int) int64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capsim/internal/experiments"
	"capsim/internal/metrics"
)

// post sends a RunRequest body to the test server and decodes the response.
func post(t *testing.T, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b
}

func decodeRun(t *testing.T, b []byte) RunResponse {
	t.Helper()
	var rr RunResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatalf("decode RunResponse: %v\n%s", err, b)
	}
	return rr
}

// fakeResult builds a minimal deterministic experiment result.
func fakeResult(id string) (experiments.Result, error) {
	return experiments.Result{
		ID:    id,
		Title: "fake " + id,
		Figures: []metrics.Figure{{
			ID: id, Title: "fake", XLabel: "x", YLabel: "y",
			Series: []metrics.Series{{Name: "s", X: []float64{1, 2}, Y: []float64{3, 4}}},
		}},
	}, nil
}

// TestListExperiments: GET /v1/experiments returns every registered id.
func TestListExperiments(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Experiments []struct{ ID, Title string } `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	want := experiments.IDs()
	if len(out.Experiments) != len(want) {
		t.Fatalf("got %d experiments, want %d", len(out.Experiments), len(want))
	}
	for i, e := range out.Experiments {
		if e.ID != want[i] {
			t.Errorf("experiment[%d] = %q, want %q", i, e.ID, want[i])
		}
	}
}

// TestRunRenderMatchesCLI is the tentpole contract: the render field of
// POST /v1/run is byte-identical to what experiments.Run produces for the
// same configuration (which is exactly what the CLI prints). fig1a is pure
// closed-form math, so the test is fast.
func TestRunRenderMatchesCLI(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()

	want, err := experiments.Run("fig1a", experiments.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	code, b := post(t, ts, `{"experiment":"fig1a"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	rr := decodeRun(t, b)
	if rr.Render != want.Render() {
		t.Errorf("render differs from CLI:\n--- api ---\n%s\n--- cli ---\n%s", rr.Render, want.Render())
	}
	if rr.Schema != ResponseSchema {
		t.Errorf("schema = %q, want %q", rr.Schema, ResponseSchema)
	}
	if rr.Cached {
		t.Error("first run reported cached")
	}
	if rr.Config.Seed != experiments.DefaultConfig().Seed {
		t.Errorf("config echo seed = %d", rr.Config.Seed)
	}
}

// TestRunValidation covers the request-shape rejections.
func TestRunValidation(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	cases := []struct {
		name, body string
		want       int
	}{
		{"missing experiment", `{}`, http.StatusBadRequest},
		{"unknown experiment", `{"experiment":"fig99"}`, http.StatusUnprocessableEntity},
		{"bad json", `{"experiment":`, http.StatusBadRequest},
		{"unknown field", `{"experiment":"fig1a","bogus":1}`, http.StatusBadRequest},
		{"negative parallel", `{"experiment":"fig1a","parallel":-1}`, http.StatusBadRequest},
		{"tiny budget", `{"experiment":"fig10","cache_refs":10}`, http.StatusUnprocessableEntity},
		{"removed switch field", `{"experiment":"fig1a","onepass":true,"queue_engine":"event"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, b := post(t, ts, tc.body)
			if code != tc.want {
				t.Fatalf("status %d, want %d: %s", code, tc.want, b)
			}
			var er ErrorResponse
			if err := json.Unmarshal(b, &er); err != nil || er.Error == "" {
				t.Fatalf("error envelope missing: %s", b)
			}
		})
	}
}

// TestCacheAndSingleflight: N identical concurrent requests execute the
// experiment once and receive byte-identical responses; a later request is
// served from cache with Cached=true; no_cache forces a re-run.
func TestCacheAndSingleflight(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	s := New(Options{
		MaxInFlight: 1,
		Runner: func(ctx context.Context, id string, cfg experiments.Config) (experiments.Result, error) {
			runs.Add(1)
			<-release
			return fakeResult(id)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 4
	codes := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = post(t, ts, `{"experiment":"fig10"}`)
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let all four coalesce on one flight
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("runner executed %d times for identical concurrent requests, want 1", got)
	}
	var renders []string
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		renders = append(renders, decodeRun(t, bodies[i]).Render)
	}
	for i := 1; i < n; i++ {
		if renders[i] != renders[0] {
			t.Errorf("request %d render differs from request 0", i)
		}
	}

	// A later identical request is a cache hit.
	code, b := post(t, ts, `{"experiment":"fig10"}`)
	if code != http.StatusOK {
		t.Fatalf("cached request: status %d", code)
	}
	if rr := decodeRun(t, b); !rr.Cached {
		t.Error("expected cached response")
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("cache hit re-ran the experiment (%d runs)", got)
	}

	// no_cache bypasses both lookup and population.
	code, b = post(t, ts, `{"experiment":"fig10","no_cache":true}`)
	if code != http.StatusOK {
		t.Fatalf("no_cache request: status %d: %s", code, b)
	}
	if rr := decodeRun(t, b); rr.Cached {
		t.Error("no_cache response claims cached")
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("no_cache did not re-run (%d runs)", got)
	}
}

// TestAdmission429: with one slot occupied and no queue-wait budget, a
// request for a *different* configuration is rejected with 429.
func TestAdmission429(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s := New(Options{
		MaxInFlight: 1,
		QueueWait:   -1, // reject immediately when full
		Runner: func(ctx context.Context, id string, cfg experiments.Config) (experiments.Result, error) {
			close(started)
			<-release
			return fakeResult(id)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	errc := make(chan error, 1)
	go func() {
		code, b := post(t, ts, `{"experiment":"fig10","seed":1}`)
		if code != http.StatusOK {
			errc <- fmt.Errorf("occupier: status %d: %s", code, b)
			return
		}
		errc <- nil
	}()
	<-started
	if got := s.InFlight(); got != 1 {
		t.Errorf("InFlight = %d, want 1", got)
	}
	code, b := post(t, ts, `{"experiment":"fig10","seed":2}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", code, b)
	}
	var er ErrorResponse
	if err := json.Unmarshal(b, &er); err != nil || !strings.Contains(er.Error, "busy") {
		t.Errorf("429 envelope: %s", b)
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestRunTimeout504: a run exceeding its request deadline is cancelled and
// mapped to 504, and the failure is not memoized — a retry succeeds.
func TestRunTimeout504(t *testing.T) {
	var calls atomic.Int64
	s := New(Options{
		Runner: func(ctx context.Context, id string, cfg experiments.Config) (experiments.Result, error) {
			if calls.Add(1) == 1 {
				<-ctx.Done() // simulate a sweep observing cancellation
				return experiments.Result{}, ctx.Err()
			}
			return fakeResult(id)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, b := post(t, ts, `{"experiment":"fig10","timeout_ms":30}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, b)
	}
	// The timeout must not poison the cache entry for this configuration.
	code, b = post(t, ts, `{"experiment":"fig10"}`)
	if code != http.StatusOK {
		t.Fatalf("retry after timeout: status %d: %s", code, b)
	}
	if rr := decodeRun(t, b); rr.Cached {
		t.Error("retry reported cached — the failed compute was memoized")
	}
}

// TestForeignCancellationRetry: request A (tight deadline) starts the
// compute; request B joins the same flight. A's deadline cancels the shared
// compute, but B's context is still live, so B retries under its own
// context and succeeds instead of inheriting A's cancellation.
func TestForeignCancellationRetry(t *testing.T) {
	var calls atomic.Int64
	inFirst := make(chan struct{})
	s := New(Options{
		Runner: func(ctx context.Context, id string, cfg experiments.Config) (experiments.Result, error) {
			if calls.Add(1) == 1 {
				close(inFirst)
				<-ctx.Done()
				return experiments.Result{}, ctx.Err()
			}
			return fakeResult(id)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	go func() { // request A; its own outcome (504) is not under test here
		resp, err := http.Post(ts.URL+"/v1/run", "application/json",
			strings.NewReader(`{"experiment":"fig10","timeout_ms":50}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-inFirst
	code, b := post(t, ts, `{"experiment":"fig10"}`) // request B joins A's flight
	if code != http.StatusOK {
		t.Fatalf("request B inherited A's cancellation: status %d: %s", code, b)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("runner calls = %d, want 2 (A's cancelled compute + B's retry)", got)
	}
}

// TestDrain: during Shutdown new runs get 503 immediately, an in-flight run
// whose grace expires is cancelled (503 under drain), and /healthz flips to
// draining.
func TestDrain(t *testing.T) {
	started := make(chan struct{})
	s := New(Options{
		Runner: func(ctx context.Context, id string, cfg experiments.Config) (experiments.Result, error) {
			close(started)
			<-ctx.Done() // a well-behaved sweep: stops when cancelled
			return experiments.Result{}, ctx.Err()
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type res struct {
		code int
		body []byte
	}
	inflight := make(chan res, 1)
	go func() {
		code, b := post(t, ts, `{"experiment":"fig10"}`)
		inflight <- res{code, b}
	}()
	<-started

	// Drain with a short grace: the stuck run must be cancelled.
	sctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(sctx) }()

	// New runs during the drain are rejected immediately.
	deadline := time.After(2 * time.Second)
	for {
		code, _ := post(t, ts, `{"experiment":"fig10","seed":9}`)
		if code == http.StatusServiceUnavailable {
			break
		}
		select {
		case <-deadline:
			t.Fatal("drain never started rejecting new runs")
		case <-time.After(5 * time.Millisecond):
		}
	}

	r := <-inflight
	if r.code != http.StatusServiceUnavailable {
		t.Errorf("in-flight run after grace expiry: status %d, want 503: %s", r.code, r.body)
	}
	if err := <-done; err != nil && err != context.DeadlineExceeded {
		t.Errorf("Shutdown: %v", err)
	}

	// healthz reports draining.
	resp, err := http.Get(ts.URL + "/healthz")
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/healthz status %d, want 503 while draining", resp.StatusCode)
		}
	}
}

// TestStartShutdown exercises the real listener path end-to-end.
func TestStartShutdown(t *testing.T) {
	s := New(Options{})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestParallelOverrideEcho: the response reports the clamped worker count.
func TestParallelOverrideEcho(t *testing.T) {
	s := New(Options{
		MaxParallel: 2,
		Runner: func(ctx context.Context, id string, cfg experiments.Config) (experiments.Result, error) {
			return fakeResult(id)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, b := post(t, ts, `{"experiment":"fig10","parallel":64}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	if rr := decodeRun(t, b); rr.Parallel != 2 {
		t.Errorf("parallel echo = %d, want clamp to 2", rr.Parallel)
	}
}

// TestResponseImmutable: mutating one response must not leak into another
// request's view of the cached entry (the Cached flag is set on a copy).
func TestResponseImmutable(t *testing.T) {
	s := New(Options{Runner: func(ctx context.Context, id string, cfg experiments.Config) (experiments.Result, error) {
		return fakeResult(id)
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, first := post(t, ts, `{"experiment":"fig10"}`)
	_, second := post(t, ts, `{"experiment":"fig10"}`)
	rr1, rr2 := decodeRun(t, first), decodeRun(t, second)
	if rr1.Cached {
		t.Error("first response cached")
	}
	if !rr2.Cached {
		t.Error("second response not cached")
	}
	if rr1.Render != rr2.Render || !bytes.Equal([]byte(rr1.Render), []byte(rr2.Render)) {
		t.Error("cached render differs")
	}
}

// TestTelemetryRoutes: /metrics serves the Prometheus exposition with the
// server counters the bench's api-mixed workload scrapes, and no other
// telemetry route exists (the expvar mirror at /debug/vars is gone).
func TestTelemetryRoutes(t *testing.T) {
	s := New(Options{Runner: func(ctx context.Context, id string, cfg experiments.Config) (experiments.Result, error) {
		return fakeResult(id)
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, b := post(t, ts, `{"experiment":"fig10"}`); code != http.StatusOK {
		t.Fatalf("run: %d %s", code, b)
	}
	get := func(path string) (int, string, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
	}
	code, ct, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics: %d %q", code, ct)
	}
	for _, name := range []string{
		"capsim_server_run_ok_total",
		"capsim_server_cache_hits_total",
		"capsim_server_rejected_busy_total",
		"capsim_server_rejected_draining_total",
	} {
		if !strings.Contains(body, "\n"+name+" ") {
			t.Errorf("/metrics lacks %s", name)
		}
	}
	for _, path := range []string{"/debug/vars", "/"} {
		if code, _, _ := get(path); code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, code)
		}
	}
}

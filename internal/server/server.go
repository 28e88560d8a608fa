// Package server is the experiment-as-a-service layer: a small HTTP JSON API
// that executes any registered experiment with per-request budgets and
// streams back the byte-identical render the CLI would produce, plus
// run-manifest metadata.
//
//	GET  /v1/experiments   registered experiment ids and titles
//	POST /v1/run           execute one experiment (RunRequest -> RunResponse)
//	GET  /healthz          liveness + admission/drain state
//	GET  /metrics          the obs registry in Prometheus text (obs.Metrics)
//
// The service exists because an experiment run is heavy — a single POST can
// occupy every core for seconds — so the server's job is mostly to say "not
// yet" correctly:
//
//   - Admission control bounds in-flight runs (semaphore + queue-wait
//     budget); an inadmissible request gets 429 and backs off.
//   - Per-request deadlines and client disconnects cancel the underlying
//     sweep via context — workers stop claiming simulation jobs.
//   - Identical concurrent requests coalesce (singleflight) and completed
//     responses are cached in a bounded LRU keyed by the render-determining
//     configuration, so a dashboard refreshing fig10 costs one simulation.
//   - Shutdown drains: new runs get 503, in-flight runs finish within the
//     grace period, then the root context cancels whatever remains.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"capsim/internal/experiments"
	"capsim/internal/memo"
	"capsim/internal/obs"
	"capsim/internal/sweep"
)

// Telemetry (internal/obs): run outcomes, exported on /metrics.
var (
	obsRunOK     = obs.NewCounter("server.run_ok")
	obsCacheHits = obs.NewCounter("server.cache_hits")
	obsBusy      = obs.NewCounter("server.rejected_busy")
	obsDraining  = obs.NewCounter("server.rejected_draining")
)

// maxRequestBody bounds the POST /v1/run body; the schema is a handful of
// scalars, so anything larger is a client bug, not a bigger experiment.
const maxRequestBody = 1 << 16

// Runner executes one experiment: experiments.RunCtx, the CLI's wrapper that
// adds its -ledger-out collector, or a test's slow or failing stand-in.
type Runner func(ctx context.Context, id string, cfg experiments.Config) (experiments.Result, error)

// Options configures a Server. The zero value is usable: defaults are
// filled in by New.
type Options struct {
	// BaseConfig is the configuration a request's absent fields inherit.
	// Zero value means experiments.DefaultConfig().
	BaseConfig experiments.Config

	// MaxInFlight bounds concurrently executing runs (default 2). One run
	// can already saturate the machine via its sweep pool; stacking more
	// trades latency for nothing.
	MaxInFlight int

	// QueueWait is how long an inadmissible request may wait for a slot
	// before 429 (default 2s; negative means reject immediately).
	QueueWait time.Duration

	// RunTimeout bounds any single run's wall time (0 = unbounded). A
	// request's timeout_ms can only tighten it, never extend it.
	RunTimeout time.Duration

	// CacheEntries bounds the response cache (default 64, <0 disables
	// caching). The in-process memos underneath — study passes, policy
	// families, instruction stores — are bounded separately by the caller
	// (experiments.SetStudyCacheCap).
	CacheEntries int

	// MaxParallel caps a request's parallel override (default
	// sweep.DefaultWorkers(); requests asking for more are clamped, not
	// rejected — worker count is render-neutral).
	MaxParallel int

	// Runner executes experiments (default experiments.RunCtx). Tests
	// inject doubles here.
	Runner Runner
}

// Server is the experiment API service. Create with New, attach with
// Handler (tests) or Start (production), stop with Shutdown.
type Server struct {
	opt      Options
	adm      *admission
	cache    *memo.Memo[string, *RunResponse]
	mux      *http.ServeMux
	build    obs.BuildInfo
	draining atomic.Bool

	// root is cancelled when the drain grace period expires, releasing any
	// in-flight runs that outlive the drain.
	root       context.Context
	rootCancel context.CancelFunc

	httpSrv  *http.Server
	listener net.Listener
	done     chan struct{} // closed when the accept loop exits
	serveErr error         // set before done closes
}

// New builds a Server from opt, filling defaults for zero fields.
func New(opt Options) *Server {
	if opt.BaseConfig == (experiments.Config{}) {
		opt.BaseConfig = experiments.DefaultConfig()
	}
	if opt.MaxInFlight <= 0 {
		opt.MaxInFlight = 2
	}
	if opt.QueueWait == 0 {
		opt.QueueWait = 2 * time.Second
	}
	if opt.CacheEntries == 0 {
		opt.CacheEntries = 64
	}
	if opt.MaxParallel <= 0 {
		opt.MaxParallel = sweep.DefaultWorkers()
	}
	if opt.Runner == nil {
		opt.Runner = experiments.RunCtx
	}
	root, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:        opt,
		adm:        newAdmission(opt.MaxInFlight, opt.QueueWait),
		build:      obs.ReadBuildInfo(),
		root:       root,
		rootCancel: cancel,
		done:       make(chan struct{}),
	}
	if opt.CacheEntries > 0 {
		s.cache = &memo.Memo[string, *RunResponse]{}
		s.cache.SetCap(opt.CacheEntries)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", s.handleList)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", obs.Metrics)
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler (httptest attaches here).
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr (e.g. ":8418" or "127.0.0.1:0") and serves in a
// background goroutine, returning the bound address. Call Shutdown to stop.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.listener = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	go func() {
		s.serveErr = s.httpSrv.Serve(ln)
		close(s.done)
	}()
	return ln.Addr().String(), nil
}

// Shutdown drains the service: the draining flag flips (new POST /v1/run
// gets 503 immediately), the listener closes, and in-flight runs are given
// until ctx expires to finish — at which point the root context cancels and
// their sweeps stop claiming jobs. Safe to call more than once; a Server
// that was never Started just flips the flag and cancels.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Cancel in-flight runs a margin *before* the grace expires, so their
	// error responses can still flush over connections the HTTP drain below
	// is waiting on. Cancelling exactly at the deadline would race the
	// drain itself: the run's 503 and Shutdown's give-up land at the same
	// instant and the response is lost.
	cancelCtx := ctx
	if dl, ok := ctx.Deadline(); ok {
		margin := time.Until(dl) / 5
		if margin > time.Second {
			margin = time.Second
		}
		if margin > 0 {
			var cc context.CancelFunc
			cancelCtx, cc = context.WithDeadline(context.Background(), dl.Add(-margin))
			defer cc()
		}
	}
	stop := context.AfterFunc(cancelCtx, s.rootCancel)
	defer stop()
	defer s.rootCancel()
	if s.httpSrv == nil {
		return nil
	}
	err := s.httpSrv.Shutdown(ctx)
	if err != nil {
		// Grace expired with responses still in flight: the root cancel
		// above is already stopping their sweeps; force-close the
		// connections rather than hang.
		s.rootCancel()
		s.httpSrv.Close()
	}
	select {
	case <-s.done:
		if err == nil && s.serveErr != nil && !errors.Is(s.serveErr, http.ErrServerClosed) {
			err = s.serveErr
		}
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// InFlight reports currently executing runs (health/tests).
func (s *Server) InFlight() int { return s.adm.inUse() }

// handleList serves GET /v1/experiments.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	type item struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	ids := experiments.IDs()
	out := struct {
		Experiments []item `json:"experiments"`
	}{Experiments: make([]item, 0, len(ids))}
	for _, id := range ids {
		title, _ := experiments.Title(id)
		out.Experiments = append(out.Experiments, item{id, title})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealth serves GET /healthz: liveness plus admission and drain state.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	st := struct {
		Status   string `json:"status"`
		InFlight int    `json:"in_flight"`
		MaxRuns  int    `json:"max_in_flight"`
		Draining bool   `json:"draining"`
	}{"ok", s.adm.inUse(), s.opt.MaxInFlight, s.draining.Load()}
	code := http.StatusOK
	if st.Draining {
		st.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

// handleRun serves POST /v1/run: decode, resolve, execute (via cache /
// singleflight / admission), respond.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		obsDraining.Inc()
		writeError(w, http.StatusServiceUnavailable, "server is draining; retry against another instance")
		return
	}

	req, err := decodeRunRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return
	}
	cfg, err := req.resolve(s.opt.BaseConfig)
	if err != nil {
		var he *httpError
		if errors.As(err, &he) {
			writeError(w, he.status, he.msg)
		} else {
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}

	if req.Stream {
		s.handleStream(w, r, &req, cfg)
		return
	}

	resp, err := s.execute(r.Context(), &req, cfg)
	if err != nil {
		status, msg := s.mapErr(err)
		writeError(w, status, msg)
		return
	}
	obsRunOK.Inc()
	writeJSON(w, http.StatusOK, resp)
}

// execute runs the resolved request through the cache + singleflight +
// admission pipeline and returns the response.
//
// Admission is taken inside the singleflight compute function, so N
// identical concurrent requests consume one run slot between them — they are
// one simulation. Failed computes are never memoized (Forget on error): a
// failure belongs to the request that suffered it (timeout, drain, transient
// budget problem), not to the configuration.
func (s *Server) execute(reqCtx context.Context, req *RunRequest, cfg experiments.Config) (*RunResponse, error) {
	// Request context: client disconnect ∧ server drain-expiry ∧ deadline,
	// plus the context-scoped worker override (concurrent requests with
	// different parallel settings never race a process global). Shared with
	// the streaming path (stream.go).
	ctx, cleanup := s.runCtx(reqCtx, req)
	defer cleanup()

	if s.cache == nil || req.NoCache {
		return s.compute(ctx, req.Experiment, cfg)
	}

	key := cacheKey(req.Experiment, cfg)
	for {
		computed := false
		resp, err := s.cache.Do(key, func() (*RunResponse, error) {
			computed = true
			return s.compute(ctx, req.Experiment, cfg)
		})
		switch {
		case err != nil:
			// Never memoize failures; and if the failure was another
			// request's cancellation, retry under our own live context.
			s.cache.Forget(key)
			if isCtxErr(err) && ctx.Err() == nil {
				continue
			}
			return nil, err
		case computed:
			return resp, nil
		default:
			obsCacheHits.Inc()
			// Cached flag goes on a copy: the memoized response is shared
			// across requests and must stay immutable.
			c := *resp
			c.Cached = true
			return &c, nil
		}
	}
}

// compute performs one admitted experiment run and builds its response.
func (s *Server) compute(ctx context.Context, id string, cfg experiments.Config) (*RunResponse, error) {
	if err := s.adm.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.adm.release()

	t0 := time.Now()
	res, err := s.opt.Runner(ctx, id, cfg)
	if err != nil {
		return nil, err
	}
	title, _ := experiments.Title(id)
	if title == "" {
		title = res.Title
	}
	return &RunResponse{
		Schema:     ResponseSchema,
		Experiment: id,
		Title:      title,
		Render:     res.Render(),
		WallNS:     time.Since(t0).Nanoseconds(),
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Build:      s.build,
		Parallel:   s.effectiveWorkers(ctx),
		Config:     resolvedConfig(cfg),
	}, nil
}

// effectiveWorkers reports the sweep worker count this run executed with.
func (s *Server) effectiveWorkers(ctx context.Context) int {
	if n := sweep.CtxWorkers(ctx); n > 0 {
		return n
	}
	return sweep.DefaultWorkers()
}

// mapErr translates pipeline errors to HTTP status codes.
func (s *Server) mapErr(err error) (int, string) {
	switch {
	case errors.Is(err, ErrBusy):
		obsBusy.Inc()
		return http.StatusTooManyRequests,
			fmt.Sprintf("all %d run slots busy and queue-wait budget expired; back off and retry", s.opt.MaxInFlight)
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "run exceeded its deadline and was cancelled"
	case errors.Is(err, context.Canceled):
		if s.draining.Load() {
			return http.StatusServiceUnavailable, "run cancelled: server drain grace period expired"
		}
		return http.StatusInternalServerError, "run cancelled"
	default:
		var he *httpError
		if errors.As(err, &he) {
			return he.status, he.msg
		}
		return http.StatusInternalServerError, err.Error()
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Status: status})
}

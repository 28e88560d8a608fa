package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"capsim/internal/experiments"
	"capsim/internal/memo"
	"capsim/internal/obs"
	"capsim/internal/tech"
)

// ResponseSchema versions the POST /v1/run response document. Bump on
// breaking shape changes (same convention as obs.ManifestSchema).
const ResponseSchema = "capsim/run-response/v2"

// RunRequest is the POST /v1/run body. Every budget field is optional
// (pointer); an absent field inherits the server's base configuration, so a
// minimal request is just {"experiment":"fig10"}. The knobs mirror the
// capsim CLI flags one-for-one — the server is the CLI's experiment loop
// behind HTTP, nothing more.
type RunRequest struct {
	// Experiment is the registered experiment id (see GET /v1/experiments).
	Experiment string `json:"experiment"`

	// Budget overrides (CLI: -seed, -cache-refs, -cache-warm, -queue-instrs,
	// -interval, -switch-penalty, -feature).
	Seed          *uint64  `json:"seed,omitempty"`
	CacheRefs     *int64   `json:"cache_refs,omitempty"`
	CacheWarmRefs *int64   `json:"cache_warm,omitempty"`
	QueueInstrs   *int64   `json:"queue_instrs,omitempty"`
	IntervalInstr *int64   `json:"interval,omitempty"`
	SwitchPenalty *int     `json:"switch_penalty,omitempty"`
	Feature       *float64 `json:"feature,omitempty"`

	// Parallel overrides the sweep worker count for this request only
	// (context-scoped via sweep.WithWorkers; it never touches the process
	// default). 0/absent inherits the server's setting. Render-neutral.
	Parallel int `json:"parallel,omitempty"`

	// TimeoutMS bounds this run's wall time; expiry cancels the sweep and
	// returns 504. 0/absent inherits the server's run timeout, if any.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// NoCache forces a fresh execution, bypassing (and not populating) the
	// response cache. For benchmarking the service itself.
	NoCache bool `json:"no_cache,omitempty"`

	// Stream switches the response to a live flight-recorder feed: NDJSON
	// ledger lines (or SSE under `Accept: text/event-stream`) with run
	// columns and sweep progress as they happen, terminated by a "result"
	// line carrying the ordinary RunResponse (or an in-band "error" line).
	// Streamed runs always execute fresh — events are the product, so the
	// response cache and request coalescing are bypassed like NoCache.
	Stream bool `json:"stream,omitempty"`
}

// httpError carries an HTTP status through the run pipeline to the handler.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

func unprocessable(format string, args ...any) *httpError {
	return &httpError{http.StatusUnprocessableEntity, fmt.Sprintf(format, args...)}
}

// decodeRunRequest reads a POST /v1/run body the way the handler does: at
// most maxRequestBody bytes, one JSON object, unknown fields rejected.
func decodeRunRequest(body io.Reader) (RunRequest, error) {
	var req RunRequest
	dec := json.NewDecoder(io.LimitReader(body, maxRequestBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// resolve merges the request over the server's base configuration and
// validates the result. It returns the effective experiments.Config; request
// shape errors surface as 400 and semantic conflicts (unknown experiment,
// unrunnable budgets) as 422.
func (r *RunRequest) resolve(base experiments.Config) (experiments.Config, error) {
	if r.Experiment == "" {
		return base, badRequest("missing required field %q", "experiment")
	}
	if _, err := experiments.Title(r.Experiment); err != nil {
		return base, unprocessable("%v", err)
	}

	cfg := base
	if r.Seed != nil {
		cfg.Seed = *r.Seed
	}
	if r.CacheRefs != nil {
		cfg.CacheRefs = *r.CacheRefs
	}
	if r.CacheWarmRefs != nil {
		cfg.CacheWarmRefs = *r.CacheWarmRefs
	}
	if r.QueueInstrs != nil {
		cfg.QueueInstrs = *r.QueueInstrs
	}
	if r.IntervalInstr != nil {
		cfg.IntervalInstrs = *r.IntervalInstr
	}
	if r.SwitchPenalty != nil {
		cfg.PenaltyCycles = *r.SwitchPenalty
	}
	if r.Feature != nil {
		cfg.Feature = tech.FeatureSize(*r.Feature)
		cfg.CacheParams.Feature = cfg.Feature
	}
	if r.Parallel < 0 {
		return cfg, badRequest("parallel must be >= 0, got %d", r.Parallel)
	}
	if r.TimeoutMS < 0 {
		return cfg, badRequest("timeout_ms must be >= 0, got %d", r.TimeoutMS)
	}

	if err := cfg.Validate(); err != nil {
		return cfg, unprocessable("%v", err)
	}
	return cfg, nil
}

// cacheKey is the content key (memo.Key) of a run's render-determining
// inputs: the experiment id and every Config field, floats exact.
// Everything render-neutral (parallel, timeout — byte-identity is the
// repo's central contract) is outside Config, so requests differing only in
// execution strategy share one cached response.
func cacheKey(id string, cfg experiments.Config) string {
	k, ok := memo.Key(id, cfg)
	if !ok {
		panic("server: experiments.Config has no content key")
	}
	return k
}

// ResolvedConfig echoes the effective run budgets in the response, so a
// client can reproduce the run from the response alone (CLI flag per field).
type ResolvedConfig struct {
	Seed          uint64  `json:"seed"`
	CacheRefs     int64   `json:"cache_refs"`
	CacheWarmRefs int64   `json:"cache_warm"`
	QueueInstrs   int64   `json:"queue_instrs"`
	IntervalInstr int64   `json:"interval"`
	SwitchPenalty int     `json:"switch_penalty"`
	Feature       float64 `json:"feature"`
}

func resolvedConfig(cfg experiments.Config) ResolvedConfig {
	return ResolvedConfig{
		Seed:          cfg.Seed,
		CacheRefs:     cfg.CacheRefs,
		CacheWarmRefs: cfg.CacheWarmRefs,
		QueueInstrs:   cfg.QueueInstrs,
		IntervalInstr: cfg.IntervalInstrs,
		SwitchPenalty: cfg.PenaltyCycles,
		Feature:       float64(cfg.Feature),
	}
}

// RunResponse is the POST /v1/run response body. Render carries the exact
// bytes the CLI prints for the same configuration (the serve-smoke CI target
// byte-compares the two), plus run-manifest-style metadata.
type RunResponse struct {
	Schema     string         `json:"schema"`
	Experiment string         `json:"experiment"`
	Title      string         `json:"title"`
	Render     string         `json:"render"`
	Cached     bool           `json:"cached"`
	WallNS     int64          `json:"wall_ns"`
	Generated  string         `json:"generated"`
	Build      obs.BuildInfo  `json:"build"`
	Parallel   int            `json:"parallel"`
	Config     ResolvedConfig `json:"config"`
}

// ErrorResponse is the JSON error envelope for every non-2xx status.
type ErrorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

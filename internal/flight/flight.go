// Package flight is capsim's adaptation flight recorder: a structured,
// per-interval decision ledger for the Section 6 interval engines. Where
// internal/obs answers "how much work did the process do", flight answers
// "what did the adaptation manager decide at interval 812, what did the
// decision cost, and how far did it trail the oracle" — one event per
// (run, policy column, interval), with exact clock/penalty accounting and
// regret bookkeeping against the per-interval oracle column.
//
// The recorder follows the internal/obs publication contract (DESIGN.md,
// "Observability"):
//
//   - Zero overhead when disabled. The whole package sits behind one
//     context key: a run's collectors ride its context (WithCollector), and
//     nothing is process-wide. The engines check Active(ctx) ONCE per run —
//     never per interval — and only assemble events when a collector is
//     installed. A run without -ledger-out and without a streaming request
//     pays one ctx.Value per policy run.
//   - Plain tallies on hot paths, publication at coarse boundaries. Engines
//     append events to a private slice while simulating and publish the whole
//     run column in one PublishRun call at the end, so concurrent sweep
//     workers never contend mid-run and every run's lines are contiguous in
//     the ledger.
//   - Byte-identical renders ledger-on/off. No simulated value ever depends
//     on recorder state; the events are stamped FROM the exact accumulators
//     the engines already maintain (the same float operation order), which is
//     what makes the ledger invariants in check.go exact rather than
//     approximate.
//
// The persisted artifact is versioned NDJSON (`capsim/ledger/v1`, one JSON
// object per line, gzip when the path ends ".gz"): a header line, then per
// run a "run" metadata line, its "iv" interval events, and an "end" summary.
// `capsim -report` (report.go) turns ledgers back into regret summaries,
// switch/dwell tables and a policy league table; the experiment API server
// streams the same lines live over POST /v1/run {"stream":true}.
package flight

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"capsim/internal/obs"
)

// Schema versions the ledger artifact. Bump on breaking shape changes (same
// convention as obs.ManifestSchema and server.ResponseSchema).
const Schema = "capsim/ledger/v1"

// Telemetry (internal/obs): failure visibility. A collector that went quiet
// after a sink error counts every run it drops.
var obsDropped = obs.NewCounter("flight.dropped_runs")

// Run kinds: how the column was produced.
const (
	// KindTrace is a fixed-configuration replay column of the fixed roster's
	// race family (core.MultiPolicy.Traces), replayed from its own
	// configuration so it never switches — the raw material of fig12/fig13.
	KindTrace = "trace"
	// KindOracle is the synthesized per-interval oracle column: the
	// time-minimal fixed column at every interval, switching free of charge.
	KindOracle = "oracle"
	// KindFixed is a fixed-policy replay run (core.MultiPolicy.RunFixed),
	// including its interval-0 transition penalty.
	KindFixed = "fixed"
	// KindRace is a live stateful-policy column of a lockstep race
	// (core.MultiPolicy.Race).
	KindRace = "race"
)

// RunMeta identifies one run column: which application/stream it consumed,
// which configuration menu it adapted over, and which policy drove it.
type RunMeta struct {
	App     string `json:"app"`
	Seed    uint64 `json:"seed"`
	Sizes   []int  `json:"sizes"`
	N       int64  `json:"n"` // instructions per interval
	Penalty int    `json:"penalty_cycles"`
	Policy  string `json:"policy"`
	Kind    string `json:"kind"`
}

// Event is one per-interval adaptation decision record. The float fields are
// stamped from the engines' own accumulators in their exact operation order,
// so the ledger invariants (CheckRun) hold with float equality, not
// tolerance:
//
//	AdvNS       = float64(Cycles) × PeriodNS
//	CumTimeNS   = running ( += DrainNS; += PenaltyNS; += AdvNS )
//	RegretNS    = DrainNS + PenaltyNS + AdvNS − OracleNS  (0 for the oracle)
//	CumRegretNS = running ( += RegretNS )
//
// OracleNS is the per-interval oracle's time for this interval: the minimum
// cycles×period over the run's fixed columns (one FixedPolicy per menu
// size) — the time-domain minimum, chosen over the min-TPI oracle the
// drivers print, because exact non-negative regret needs minima in the same
// unit the columns accumulate (see DESIGN.md "Flight recorder").
type Event struct {
	Interval    int64   `json:"iv"`
	Config      int     `json:"cfg"`
	Size        int     `json:"size"` // queue entries of Config
	Cycles      int64   `json:"cycles"`
	Issued      int64   `json:"issued"`
	PeriodNS    float64 `json:"period_ns"`
	DrainCycles int64   `json:"drain_cycles,omitempty"`
	DrainNS     float64 `json:"drain_ns"`
	PenaltyNS   float64 `json:"pen_ns"`
	AdvNS       float64 `json:"adv_ns"`
	CumTimeNS   float64 `json:"cum_time_ns"`
	TPI         float64 `json:"tpi_ns"` // AdvNS / Issued, the monitor's sample
	OracleCfg   int     `json:"oracle_cfg"`
	OracleNS    float64 `json:"oracle_ns"`
	RegretNS    float64 `json:"regret_ns"`
	CumRegretNS float64 `json:"cum_regret_ns"`
	Switched    bool    `json:"switched,omitempty"`
}

// RunEnd summarizes a completed run column; its totals must reproduce the
// event stream's running sums exactly (CheckRun).
type RunEnd struct {
	Intervals   int64   `json:"intervals"`
	Instrs      int64   `json:"instrs"`
	TimeNS      float64 `json:"time_ns"`
	TPI         float64 `json:"tpi_ns"`
	Switches    int64   `json:"switches"`
	CumRegretNS float64 `json:"cum_regret_ns"`
}

// Progress is a transient sweep-progress pulse (jobs completed out of total
// in the currently executing sweep pass). Streaming sinks forward it so a
// live client sees movement between run publications; the file sink drops it
// — the persisted ledger records decisions, not liveness.
type Progress struct {
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Label string `json:"label,omitempty"`
}

// Sink consumes recorder output. WriteRun receives one complete run column
// atomically (the collector serializes calls); WriteProgress receives
// transient pulses and may ignore them.
type Sink interface {
	WriteRun(run int64, meta RunMeta, events []Event, end RunEnd) error
	WriteProgress(p Progress) error
}

// Collector assigns run ids and serializes publication into a Sink. It is
// installed on a run's context (WithCollector); engines publish through the
// package-level Publish*, which reach every collector the context carries.
type Collector struct {
	mu   sync.Mutex
	sink Sink
	seq  int64
	err  error
}

// NewCollector wraps sink in a collector.
func NewCollector(sink Sink) *Collector { return &Collector{sink: sink} }

// PublishRun writes one complete run column. After the first sink error the
// collector goes quiet and drops subsequent runs — a dead client or full
// disk must not fail the simulation; Err surfaces the failure to whoever
// owns the sink.
func (c *Collector) PublishRun(meta RunMeta, events []Event, end RunEnd) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		obsDropped.Inc()
		return
	}
	c.seq++
	if err := c.sink.WriteRun(c.seq, meta, events, end); err != nil {
		c.err = err
		obsDropped.Inc()
	}
}

// PublishProgress forwards a progress pulse; errors are terminal like
// PublishRun's.
func (c *Collector) PublishProgress(p Progress) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	if err := c.sink.WriteProgress(p); err != nil {
		c.err = err
	}
}

// Err returns the first sink error, if any.
func (c *Collector) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// --- installation ----------------------------------------------------------

// ctxKey carries the context's collectors, outermost first.
type ctxKey struct{}

// WithCollector returns a context whose Publish* calls reach c as well as
// every collector ctx already carries: an inner collector adds to the outer
// ones and never shadows them, and a sibling context never sees it. A nil c
// returns ctx.
func WithCollector(ctx context.Context, c *Collector) context.Context {
	if c == nil {
		return ctx
	}
	outer := collectors(ctx)
	return context.WithValue(ctx, ctxKey{}, append(outer[:len(outer):len(outer)], c))
}

// collectors returns the context's collectors, or nil.
func collectors(ctx context.Context) []*Collector {
	cs, _ := ctx.Value(ctxKey{}).([]*Collector)
	return cs
}

// Active reports whether any collector would receive a publication under
// ctx. Engines call it once per run and skip all event assembly when false —
// this check IS the zero-overhead-when-disabled gate.
func Active(ctx context.Context) bool { return len(collectors(ctx)) > 0 }

// Publish hands one complete run column to every collector of ctx (each
// assigns its own run id). The sinks may retain events for deferred
// encoding, so it must never be mutated afterward; engines publish a
// freshly built private slice and drop their reference.
func Publish(ctx context.Context, meta RunMeta, events []Event, end RunEnd) {
	for _, c := range collectors(ctx) {
		c.PublishRun(meta, events, end)
	}
}

// PublishProgress hands a sweep-progress pulse to every collector of ctx.
func PublishProgress(ctx context.Context, p Progress) {
	for _, c := range collectors(ctx) {
		c.PublishProgress(p)
	}
}

// --- NDJSON line shapes ----------------------------------------------------

// Line discriminators ("t" field) of the NDJSON stream.
const (
	LineHeader   = "ledger"
	LineRun      = "run"
	LineEvent    = "iv"
	LineEnd      = "end"
	LineProgress = "progress"
)

// The line structs below are the shapes ParseLedger decodes; encode.go
// writes the same lines by hand, field for field in their tag order.

type headerLine struct {
	T         string `json:"t"`
	Schema    string `json:"schema"`
	Generated string `json:"generated,omitempty"`
}

type runLine struct {
	T   string `json:"t"`
	Run int64  `json:"run"`
	RunMeta
}

type eventLine struct {
	T   string `json:"t"`
	Run int64  `json:"run"`
	Event
}

type endLine struct {
	T   string `json:"t"`
	Run int64  `json:"run"`
	RunEnd
}

// --- file sink -------------------------------------------------------------

// LedgerWriter is the persistent NDJSON sink behind `capsim -ledger-out`:
// buffered, optionally gzipped (path ends ".gz"), header-first. WriteRun
// only enqueues; a single background goroutine encodes each run column into
// one reused buffer and hands it to the gzip stream in one Write. The
// simulation's goroutines pay only the queue handoff, but the encode and
// the compression still take CPU from the run (DESIGN.md, "Measured
// overhead").
// Run columns are written in publication order (one channel, one
// consumer), which keeps the on-disk ledger byte-identical to what a
// synchronous writer would produce.
type LedgerWriter struct {
	f    *os.File
	gz   *gzip.Writer
	bw   *bufio.Writer
	dst  io.Writer
	ch   chan ledgerRec
	done chan struct{}
	werr atomic.Pointer[error] // first encode error, set by the write loop
}

// ledgerRec is one queued run column awaiting encoding.
type ledgerRec struct {
	run    int64
	meta   RunMeta
	events []Event
	end    RunEnd
}

// CreateLedger creates (truncates) the ledger file at path, writes the
// schema header, and starts the background write loop. Close (exactly once)
// drains the queue, flushes and closes every layer.
func CreateLedger(path string) (*LedgerWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	l := &LedgerWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16)}
	l.dst = l.bw
	if strings.HasSuffix(path, ".gz") {
		// BestSpeed: the ledger is NDJSON with heavily repeated keys, so even
		// the fastest level compresses the zoo ledger 5.7x; deeper levels
		// only add CPU to the recording run's wall time.
		l.gz, _ = gzip.NewWriterLevel(l.bw, gzip.BestSpeed)
		l.dst = l.gz
	}
	if err := EncodeHeader(l.dst, time.Now().UTC().Format(time.RFC3339)); err != nil {
		f.Close()
		return nil, err
	}
	l.ch = make(chan ledgerRec, 64)
	l.done = make(chan struct{})
	go l.writeLoop()
	return l, nil
}

// writeLoop drains the queue on a dedicated goroutine. After the first
// encode error it keeps draining (so producers never block on a dead sink)
// but stops writing; the error surfaces through WriteRun and Close.
func (l *LedgerWriter) writeLoop() {
	defer close(l.done)
	var buf []byte
	for rec := range l.ch {
		if l.werr.Load() != nil {
			continue
		}
		var err error
		if buf, err = appendRun(buf[:0], rec.run, &rec.meta, rec.events, &rec.end); err == nil {
			_, err = l.dst.Write(buf)
		}
		if err != nil {
			l.werr.Store(&err)
		}
	}
}

// WriteRun implements Sink: it enqueues the run column for the write loop,
// blocking only when the queue is full (backpressure, not loss). The events
// slice is retained until encoded and must not be mutated by the caller.
func (l *LedgerWriter) WriteRun(run int64, meta RunMeta, events []Event, end RunEnd) error {
	if ep := l.werr.Load(); ep != nil {
		return *ep
	}
	l.ch <- ledgerRec{run: run, meta: meta, events: events, end: end}
	return nil
}

// WriteProgress implements Sink: the persisted ledger records decisions, not
// liveness — progress pulses are dropped.
func (l *LedgerWriter) WriteProgress(Progress) error { return nil }

// Close drains the write queue, flushes the gzip and buffer layers and
// closes the file, reporting the first error (including deferred encode
// errors) so a truncated ledger is visible instead of shipping silently.
func (l *LedgerWriter) Close() error {
	close(l.ch)
	<-l.done
	var first error
	if ep := l.werr.Load(); ep != nil {
		first = *ep
	}
	if l.gz != nil {
		if err := l.gz.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := l.bw.Flush(); err != nil && first == nil {
		first = err
	}
	if err := l.f.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// openLedgerReader opens path for reading, transparently ungzipping by
// content (magic bytes, not extension — a renamed ledger still reads).
func openLedgerReader(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	magic, err := br.Peek(2)
	if err == nil && len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("flight: %s: %w", path, err)
		}
		return struct {
			io.Reader
			io.Closer
		}{gz, f}, nil
	}
	return struct {
		io.Reader
		io.Closer
	}{br, f}, nil
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the span tracer: instrumented code opens spans around units
// of work (an experiment, a study's profiling pass, one sweep job, a memo
// singleflight wait) and the tracer streams them out in Chrome trace-event
// format — one JSON event object per line inside a top-level array, loadable
// directly in chrome://tracing or https://ui.perfetto.dev. Worker occupancy,
// queue stalls and per-cell cost become visible as a timeline instead of a
// guess.
//
// The sink follows the pointer-swap nil-sink pattern: a package-wide
// atomic.Pointer[Tracer] that is nil unless cmd/capsim installed a sink via
// -trace-out. StartSpan with a nil sink returns the zero Span, whose End is
// a no-op — two predicted branches and no time.Now() call, so the
// instrumentation is free when tracing is off.
//
// Emission order is completion order and timestamps come from the wall
// clock, so the trace is NOT deterministic run-to-run — which is fine,
// because nothing reads it back into the simulation; the byte-identity
// gates only cover rendered experiment output.

// Tracer streams Chrome trace events to an io.Writer. Safe for concurrent
// use; each event is serialized under one mutex (spans are coarse — per job,
// not per reference — so the lock is uncontended in practice).
type Tracer struct {
	mu    sync.Mutex
	w     io.Writer
	c     io.Closer
	start time.Time
	err   error
}

// tracer is the installed sink; nil = tracing disabled.
var tracer atomic.Pointer[Tracer]

// ids hands out unique ids for async spans and worker tid blocks.
var ids atomic.Int64

// Tracing reports whether a trace sink is installed.
func Tracing() bool { return tracer.Load() != nil }

// StartTrace installs w as the process trace sink and writes the array
// opener. If w is also an io.Closer it is closed by StopTrace. Returns an
// error if a sink is already installed.
func StartTrace(w io.Writer) error {
	t := &Tracer{w: w, start: time.Now()}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	if !tracer.CompareAndSwap(nil, t) {
		return fmt.Errorf("obs: trace sink already installed")
	}
	t.mu.Lock()
	_, t.err = io.WriteString(w, "[\n")
	t.mu.Unlock()
	// Name the orchestrator thread.
	t.meta(0, "main")
	return nil
}

// StopTrace removes the sink, terminates the JSON array and closes the
// underlying writer if it is closable. Safe to call when no sink is
// installed (returns nil). Returns the first write error encountered over
// the trace's lifetime, so a truncated trace is reported rather than
// silently shipped.
func StopTrace() error {
	t := tracer.Swap(nil)
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// The last real event line ends with ",\n"; a dummy metadata event
	// keeps the array strictly valid JSON without comma tracking.
	io.WriteString(t.w, `{"name":"trace_end","ph":"i","ts":0,"pid":1,"tid":0,"s":"g"}`+"\n]\n")
	if t.c != nil {
		if err := t.c.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// event is one Chrome trace event. TsUS/DurUS are microseconds (fractional
// values carry ns precision, which the viewers accept).
type event struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TsUS  float64        `json:"ts"`
	DurUS float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int64          `json:"tid"`
	ID    int64          `json:"id,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// emit serializes one event line under the tracer lock.
func (t *Tracer) emit(e event) {
	e.PID = 1
	buf, err := json.Marshal(e)
	if err != nil {
		return // unmarshalable args: drop the event, never the run
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if _, err := t.w.Write(append(buf, ',', '\n')); err != nil {
		t.err = err
	}
}

// us converts a time to microseconds since trace start.
func (t *Tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.start).Nanoseconds()) / 1e3
}

// meta emits a thread_name metadata record so the viewer labels tid's track.
func (t *Tracer) meta(tid int64, name string) {
	t.emit(event{Name: "thread_name", Phase: "M", TID: tid,
		Args: map[string]any{"name": name}})
}

// Span is one open duration on a thread track. The zero Span (tracing
// disabled) is valid and End on it is a no-op.
type Span struct {
	t     *Tracer
	name  string
	tid   int64
	start time.Time
}

// StartSpan opens a span on thread track tid. tid 0 is the orchestrator;
// sweep workers use tids from WorkerTIDs so concurrent jobs land on separate
// tracks.
func StartSpan(name string, tid int64) Span {
	t := tracer.Load()
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, tid: tid, start: time.Now()}
}

// End closes the span, emitting a complete ("X") event. Optional args
// attach key/value detail (grid index, app name, byte counts).
func (s Span) End(args ...Arg) {
	if s.t == nil {
		return
	}
	now := time.Now()
	e := event{
		Name:  s.name,
		Phase: "X",
		TsUS:  s.t.us(s.start),
		DurUS: float64(now.Sub(s.start).Nanoseconds()) / 1e3,
		TID:   s.tid,
	}
	if len(args) > 0 {
		e.Args = make(map[string]any, len(args))
		for _, a := range args {
			e.Args[a.K] = a.V
		}
	}
	s.t.emit(e)
}

// Arg is one span annotation.
type Arg struct {
	K string
	V any
}

// AsyncSpan is a span without thread affinity: the viewers render async
// ("b"/"e") pairs on their own per-name tracks, which is exactly right for
// work that happens *on* some worker goroutine but is interesting as its own
// timeline — per-(app x config) profile cells, singleflight waits.
type AsyncSpan struct {
	t     *Tracer
	name  string
	cat   string
	id    int64
	start time.Time
}

// StartAsync opens an async span under the given category.
func StartAsync(cat, name string) AsyncSpan {
	t := tracer.Load()
	if t == nil {
		return AsyncSpan{}
	}
	return AsyncSpan{t: t, name: name, cat: cat, id: ids.Add(1), start: time.Now()}
}

// End closes the async span (a no-op for the zero value).
func (s AsyncSpan) End(args ...Arg) {
	if s.t == nil {
		return
	}
	now := time.Now()
	var m map[string]any
	if len(args) > 0 {
		m = make(map[string]any, len(args))
		for _, a := range args {
			m[a.K] = a.V
		}
	}
	s.t.emit(event{Name: s.name, Cat: s.cat, Phase: "b", TsUS: s.t.us(s.start), TID: 0, ID: s.id, Args: m})
	s.t.emit(event{Name: s.name, Cat: s.cat, Phase: "e", TsUS: s.t.us(now), TID: 0, ID: s.id})
}

// WorkerTIDs reserves a block of n thread ids for a worker pool and labels
// them in the trace. Each RunNCtx invocation gets a fresh block, so nested
// sweeps never interleave their jobs on one track. Returns the base tid
// (worker w uses base+w); with tracing off it returns 0 without reserving.
func WorkerTIDs(n int, label string) int64 {
	t := tracer.Load()
	if t == nil {
		return 0
	}
	base := ids.Add(int64(n)) - int64(n) + 1
	for w := 0; w < n; w++ {
		t.meta(base+int64(w), fmt.Sprintf("%s %d.%d", label, base, w))
	}
	return base
}

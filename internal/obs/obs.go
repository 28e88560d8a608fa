// Package obs is capsim's process-wide telemetry subsystem: a registry of
// sharded, cache-line-padded atomic counters, gauges and log2 histograms
// cheap enough to sit next to the simulator hot paths, a span tracer that
// emits Chrome trace-event JSONL (span.go), a run-manifest builder
// (manifest.go), and a live expvar/metrics HTTP endpoint (serve.go).
//
// Design rules, in priority order:
//
//  1. Observability must never perturb simulation. No obs state ever feeds
//     back into a simulator decision; renders are byte-identical whether
//     telemetry is on or off (the determinism tests and the bench-obs-smoke
//     gate in `make ci` enforce this). The simulators keep their existing
//     local Stats structs in the hot loops — obs only receives *deltas* at
//     coarse boundaries (end of a profile pass, an interval run, a sweep
//     job), never per-reference or per-cycle.
//  2. Disabled-mode cost must be noise. The whole package sits behind one
//     process-wide atomic switch (SetEnabled): a disabled Counter.Add is one
//     atomic bool load and a predicted branch, and the publication call
//     sites run at most once per profile pass or interval, so `capsim`
//     without any -obs flags pays nothing measurable (the bench harness
//     reports the on/off difference as obs_overhead_frac).
//  3. Hot concurrent writers must not false-share. Counters are striped
//     across cache-line-padded lanes; writers with a natural identity (the
//     sweep pool passes its worker index) land on distinct lines, everyone
//     else uses lane 0.
//
// cmd/capsim exposes the subsystem as -metrics-out (run manifest),
// -trace-out (Chrome trace), -serve (live endpoint) and -obs (counters only).
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled is the process-wide counter/gauge/histogram switch. The default is
// OFF: plain runs pay nothing.
var enabled atomic.Bool

// SetEnabled turns metric recording on or off process-wide. The tracer
// (span.go) has its own independent switch — installing a trace sink enables
// spans without requiring counters, and vice versa.
func SetEnabled(v bool) { enabled.Store(v) }

// Enabled reports whether metric recording is active.
func Enabled() bool { return enabled.Load() }

// NumLanes is the stripe count of a Counter. Power of two so lane selection
// is a mask; 16 lanes × 64 B = 1 KB per counter, enough to give every sweep
// worker on a desktop-class part its own line.
const (
	NumLanes = 16
	laneMask = NumLanes - 1
)

// lane is one cache-line-padded counter cell. 64-byte alignment pads the
// 8-byte atomic to a full line so adjacent lanes never share one.
type lane struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter. The zero value is
// NOT usable — counters are created through NewCounter (or
// Registry.NewCounter) so they are discoverable by snapshots and the live
// endpoint.
type Counter struct {
	name  string
	lanes [NumLanes]lane
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Add adds d on the given lane when telemetry is enabled. Callers with a
// natural worker identity (sweep workers) pass it as the lane so concurrent
// adds stay on distinct cache lines; lane values are reduced mod NumLanes.
func (c *Counter) Add(ln int, d int64) {
	if !enabled.Load() {
		return
	}
	c.lanes[ln&laneMask].v.Add(d)
}

// Inc is Add(lane, 1).
func (c *Counter) Inc(ln int) { c.Add(ln, 1) }

// Add1 is Add on lane 0, for call sites without a worker identity.
func (c *Counter) Add1(d int64) { c.Add(0, d) }

// Inc1 is Inc on lane 0.
func (c *Counter) Inc1() { c.Add(0, 1) }

// Value returns the sum over all lanes. Reads are not gated on Enabled so
// snapshots taken just after disabling still see the final totals.
func (c *Counter) Value() int64 {
	var s int64
	for i := range c.lanes {
		s += c.lanes[i].v.Load()
	}
	return s
}

// reset zeroes every lane (Registry.Reset).
func (c *Counter) reset() {
	for i := range c.lanes {
		c.lanes[i].v.Store(0)
	}
}

// Gauge is a last-value-wins instantaneous metric (queue depth, store
// counts). A single atomic cell: gauges are written at coarse boundaries, so
// striping would only blur the "current" value they exist to report.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores v when telemetry is enabled.
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d when telemetry is enabled.
func (g *Gauge) Add(d int64) {
	if !enabled.Load() {
		return
	}
	g.v.Add(d)
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) reset() { g.v.Store(0) }

// --- registry -------------------------------------------------------------

// Registry holds named metrics. The package-level Default registry is what
// the instrumented packages register into at init; tests construct private
// registries so their names cannot collide with the real instrumentation.
type Registry struct {
	mu     sync.Mutex
	names  map[string]bool
	counts []*Counter
	gauges []*Gauge
	hists  []*Histogram
}

// Default is the process-wide registry behind NewCounter/NewGauge/
// NewHistogram, the run manifest and the live endpoint.
var Default = &Registry{}

func (r *Registry) claim(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	if r.names == nil {
		r.names = make(map[string]bool)
	}
	if r.names[name] {
		panic("obs: duplicate metric name " + name)
	}
	r.names[name] = true
}

// NewCounter registers a new counter. Panics on a duplicate or empty name —
// metric names are package-level constants, so a collision is a programming
// error, not a runtime condition.
func (r *Registry) NewCounter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	c := &Counter{name: name}
	r.counts = append(r.counts, c)
	return c
}

// NewGauge registers a new gauge.
func (r *Registry) NewGauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	g := &Gauge{name: name}
	r.gauges = append(r.gauges, g)
	return g
}

// NewHistogram registers a new histogram.
func (r *Registry) NewHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	h := &Histogram{name: name}
	r.hists = append(r.hists, h)
	return h
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name string) *Counter { return Default.NewCounter(name) }

// NewGauge registers a gauge in the Default registry.
func NewGauge(name string) *Gauge { return Default.NewGauge(name) }

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name string) *Histogram { return Default.NewHistogram(name) }

// Reset zeroes every metric in the registry (not the registrations). Used
// between A/B passes and by tests.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counts {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Snapshot is a point-in-time copy of a registry's metric values.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// TakeSnapshot captures the registry's current values. Zero-valued counters
// are included — a snapshot names every registered metric, so diffs and the
// live endpoint have a stable shape.
func (r *Registry) TakeSnapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counts)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for _, c := range r.counts {
		s.Counters[c.name] = c.Value()
	}
	for _, g := range r.gauges {
		s.Gauges[g.name] = g.Value()
	}
	for _, h := range r.hists {
		s.Histograms[h.name] = h.Snapshot()
	}
	return s
}

// TakeSnapshot captures the Default registry.
func TakeSnapshot() Snapshot { return Default.TakeSnapshot() }

// DiffCounters returns this snapshot's counters minus prev's, keeping only
// non-zero deltas — the per-experiment counter attribution in the manifest.
func (s Snapshot) DiffCounters(prev Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range s.Counters {
		if d := v - prev.Counters[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}

// SortedCounterNames returns the snapshot's counter names in sorted order
// (stable rendering for the /metrics endpoint and tests).
func (s Snapshot) SortedCounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders a compact one-metric-per-line view (diagnostics).
func (s Snapshot) String() string {
	var b []byte
	for _, n := range s.SortedCounterNames() {
		b = fmt.Appendf(b, "%s %d\n", n, s.Counters[n])
	}
	return string(b)
}

// Package obs is capsim's process-wide telemetry subsystem: a registry of
// atomic counters and log2 histograms cheap enough to sit next to the
// simulator hot paths, a run-manifest builder (manifest.go), and the live
// Prometheus /metrics handler (prom.go).
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
//     without -metrics-out pays nothing measurable (the bench harness
//     reports the on/off difference as obs_overhead_frac).
//
// cmd/capsim exposes the subsystem as -metrics-out (run manifest, which
// turns the counters on); the experiment API server (-serve-api) turns the
// counters on and mounts the live handler at /metrics.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled is the process-wide counter/histogram switch. The default is
// OFF: plain runs pay nothing.
var enabled atomic.Bool

// SetEnabled turns metric recording on or off process-wide.
func SetEnabled(v bool) { enabled.Store(v) }

// Enabled reports whether metric recording is active.
func Enabled() bool { return enabled.Load() }

// Counter is a named atomic total. Counters only grow (until
// Registry.Reset), so readers take deltas over the span they measure. The
// zero value is NOT usable — counters are created through NewCounter (or
// Registry.NewCounter) so they are discoverable by snapshots and the live
// endpoint.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add adds d when telemetry is enabled.
func (c *Counter) Add(d int64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(d)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total. Reads are not gated on Enabled so
// snapshots taken just after disabling still see the final totals.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// --- registry -------------------------------------------------------------

// Registry holds named metrics. The package-level Default registry is what
// the instrumented packages register into at init; tests construct private
// registries so their names cannot collide with the real instrumentation.
type Registry struct {
	mu     sync.Mutex
	names  map[string]bool
	counts []*Counter
	hists  []*Histogram
}

// Default is the process-wide registry behind NewCounter/NewHistogram, the
// run manifest and the live endpoint.
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
	for _, h := range r.hists {
		h.reset()
	}
}

// Snapshot is a point-in-time copy of a registry's metric values.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
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
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for _, c := range r.counts {
		s.Counters[c.name] = c.Value()
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
func (s Snapshot) SortedCounterNames() []string { return sortedKeys(s.Counters) }

// String renders a compact one-metric-per-line view (diagnostics).
func (s Snapshot) String() string {
	var b []byte
	for _, n := range s.SortedCounterNames() {
		b = fmt.Appendf(b, "%s %d\n", n, s.Counters[n])
	}
	return string(b)
}

// sortedKeys yields deterministic render order (maps iterate randomly).
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

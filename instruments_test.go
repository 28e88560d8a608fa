package capsim

import (
	"reflect"
	"sort"
	"testing"

	"capsim/internal/obs"
	_ "capsim/internal/server" // links every instrumented package, so all instruments register
)

// instruments is the complete obs registry, each name with its reader. An
// instrument stays only while something reads it; a new one joins this list
// in the same change that gives it a reader.
var instruments = []string{
	// Per-layer metrics of the bench harness (bench/layers.go). The trace
	// counters cover instruction chunks only: references are generated
	// where they are read, never stored.
	"trace.op_chunks", "trace.bytes", "trace.bytes_raw",
	"classify.gens", "classify.replays",
	"cache.multi.refs", "cache.multi.fast_hits",
	"ooo.instrs", "ooo.cycles", "ooo.idle_skipped",
	"policy.cells", "memo.persist_hits", "memo.persist_misses", "sweep.jobs",
	"memo.wait_ns", // histogram: the harness reads its sum
	// Scraped from /metrics by the bench's api-mixed workload.
	"server.cache_hits", "server.run_ok", "server.rejected_busy", "server.rejected_draining",
	// Read by tests and smoke scripts.
	"ooo.issued", "memo.persist_writes",
	// Named in a documented reading (EXPERIMENTS.md, DESIGN.md).
	"policy.race_sim_cells", "memo.hits", "memo.misses",
	"flight.dropped_runs",
}

// TestInstrumentSet pins the registry to the instruments that have a reader.
func TestInstrumentSet(t *testing.T) {
	s := obs.TakeSnapshot()
	got := s.SortedCounterNames()
	for name := range s.Histograms {
		got = append(got, name)
	}
	sort.Strings(got)
	want := append([]string(nil), instruments...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registered instruments\n  %v\nwant\n  %v", got, want)
	}
}

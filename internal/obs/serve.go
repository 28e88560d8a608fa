package obs

import (
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"sync"
)

// This file is the live telemetry surface that the experiment API server
// (internal/server, `capsim -serve-api`) mounts: the standard expvar surface
// plus the obs registry, for watching a long-lived service from outside:
//
//	curl -s localhost:8418/metrics          # Prometheus text exposition
//	curl -s localhost:8418/debug/vars | jq .capsim
//
// The handler only reads atomics; it cannot perturb the simulation, and
// nothing in a run waits on it.

// publishOnce guards the expvar registration (expvar panics on duplicate
// names, and tests may build several handlers).
var publishOnce sync.Once

// publishExpvar exposes the Default registry as the expvar "capsim" map.
func publishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("capsim", expvar.Func(func() any {
			return TakeSnapshot()
		}))
	})
}

// Handler returns the live-endpoint HTTP handler:
//
//	/            one-line index
//	/metrics     Prometheus text exposition (prom.go)
//	/debug/vars  standard expvar JSON, including the "capsim" snapshot
func Handler() http.Handler {
	publishExpvar()
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", metricsProm)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "capsim live telemetry — /metrics (Prometheus text), /debug/vars (expvar JSON)\n")
	})
	return mux
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

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"capsim/internal/cache"
	"capsim/internal/classify"
	"capsim/internal/core"
	"capsim/internal/experiments"
	"capsim/internal/memo"
	"capsim/internal/server"
	"capsim/internal/tech"
	"capsim/internal/workload"
)

// Per-layer micro-benchmarks, one per hot path the layer table points at
// beyond the cache and queue kernels the root package already benchmarks
// (BenchmarkCacheAccess, BenchmarkQueueIssue):
//
//	cd bench && go test -run '^$' -bench . -benchtime 3x -count 5

var sinkInt int

// BenchmarkClassifyCursor decodes one reference's outcome class per
// operation from a materialized classification stream (the joint kernel's
// replay path).
func BenchmarkClassifyCursor(b *testing.B) {
	const nrefs = 1 << 20
	s, err := classify.StreamFor(workload.MustByName("gcc"), 1998, cache.PaperParams(), core.PaperMaxBoundary, nrefs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var acc int
	for i := 0; i < b.N; {
		c := s.Cursor(4)
		for j := 0; j < nrefs && i < b.N; j, i = j+1, i+1 {
			acc += int(c.Next())
		}
	}
	sinkInt = acc
}

// BenchmarkMultiPolicyRace races the zoo's five contenders over one
// application for 60 intervals per operation, the instruction stream
// already materialized.
func BenchmarkMultiPolicyRace(b *testing.B) {
	const intervals = 60
	mp, err := core.NewMultiPolicy(workload.MustByName("flutter"), 1998, zooSizes, 2000, 50, tech.Micron018)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := mp.Race(ctx, zooContenders(), intervals); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mp.Race(ctx, zooContenders(), intervals)
		if err != nil {
			b.Fatal(err)
		}
		sinkInt += len(res)
	}
}

// BenchmarkStoreGetBytes reads one study-cache entry of a typical row size
// per operation.
func BenchmarkStoreGetBytes(b *testing.B) {
	s, err := memo.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	const entries = 64
	payload := bytes.Repeat([]byte("row"), 700)
	for k := 0; k < entries; k++ {
		if err := s.PutBytes(fmt.Sprint("row-", k), payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok := s.GetBytes(fmt.Sprint("row-", i%entries))
		if !ok {
			b.Fatal("entry missing")
		}
		sinkInt += len(v)
	}
}

// BenchmarkResultRender renders the zoo's league tables, the largest
// render of the registry, per operation.
func BenchmarkResultRender(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.QueueInstrs = 2000
	res, err := experiments.Run("zoo", cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt += len(res.Render())
	}
}

// BenchmarkServerCacheHit serves one response-cache hit per operation
// through the API handler over a loopback connection.
func BenchmarkServerCacheHit(b *testing.B) {
	ts := httptest.NewServer(server.New(server.Options{}).Handler())
	defer ts.Close()
	body := []byte(`{"experiment":"fig2"}`)
	post := func() {
		r, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			b.Fatalf("status %d", r.StatusCode)
		}
		sinkInt += int(n)
	}
	post() // prime the response cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

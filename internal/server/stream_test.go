package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"capsim/internal/experiments"
	"capsim/internal/flight"
	"capsim/internal/sweep"
)

// streamLines POSTs a streamed run and returns the status, Content-Type, raw
// body and parsed NDJSON lines.
func streamLines(t *testing.T, ts *httptest.Server, body, accept string) (int, string, string, []map[string]json.RawMessage) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ct := resp.Header.Get("Content-Type")
	var raw strings.Builder
	var lines []map[string]json.RawMessage
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		raw.WriteString(line)
		raw.WriteByte('\n')
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// SSE framing: strip the data: prefix before JSON decoding.
		line = strings.TrimPrefix(line, "data: ")
		var m map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("non-JSON stream line %q: %v", line, err)
		}
		lines = append(lines, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, ct, raw.String(), lines
}

func lineType(t *testing.T, m map[string]json.RawMessage) string {
	t.Helper()
	var s string
	if err := json.Unmarshal(m["t"], &s); err != nil {
		t.Fatalf("line without t: %v", m)
	}
	return s
}

// ledgerColumns returns the run columns of an NDJSON ledger or stream as a
// sorted set: each column's lines encoded under run id 0, so two recordings
// compare regardless of the order and numbering of their columns.
func ledgerColumns(t *testing.T, r io.Reader) []string {
	t.Helper()
	l, err := flight.ParseLedger(r)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(l.Runs))
	for i, run := range l.Runs {
		var b bytes.Buffer
		if err := flight.EncodeRun(&b, 0, run.Meta, run.Events, run.End); err != nil {
			t.Fatal(err)
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// A streamed run over the adaptive-policy study produces a parseable ledger
// feed — header, run columns with per-interval events and end summaries, all
// satisfying the ledger invariants — terminated by a result line whose render
// is byte-identical to the buffered response for the same configuration. A
// repeat of the request executes fresh and streams the same columns, though
// the study rows behind them are memoized by then.
func TestStreamRunLedgerAndRender(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()

	code, ct, raw, lines := streamLines(t, ts, `{"experiment":"ablation-interval","stream":true}`, "")
	if code != http.StatusOK {
		t.Fatalf("streamed run: status %d", code)
	}
	if !strings.Contains(ct, "application/x-ndjson") {
		t.Fatalf("content type %q", ct)
	}
	if len(lines) < 3 {
		t.Fatalf("only %d stream lines", len(lines))
	}
	if lineType(t, lines[0]) != flight.LineHeader {
		t.Fatalf("first line is %q, want %q", lineType(t, lines[0]), flight.LineHeader)
	}
	var schema string
	json.Unmarshal(lines[0]["schema"], &schema)
	if schema != flight.Schema {
		t.Fatalf("stream schema %q", schema)
	}

	kinds := map[string]int{}
	for _, m := range lines {
		kinds[lineType(t, m)]++
	}
	if kinds[flight.LineRun] == 0 || kinds[flight.LineEvent] == 0 || kinds[flight.LineEnd] == 0 {
		t.Fatalf("stream lacks ledger lines: %v", kinds)
	}
	if kinds["result"] != 1 {
		t.Fatalf("want exactly one result line: %v", kinds)
	}
	if lineType(t, lines[len(lines)-1]) != "result" {
		t.Fatalf("stream does not end with result: %q", lineType(t, lines[len(lines)-1]))
	}

	// The pre-result portion is a verbatim ledger: parse it with the report
	// reader and re-check every column's invariants.
	l, err := flight.ParseLedger(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Runs) == 0 {
		t.Fatal("stream carried no run columns")
	}
	byKind := map[string]int{}
	for _, r := range l.Runs {
		byKind[r.Meta.Kind]++
		if err := flight.CheckRun(r.Meta, r.Events, r.End); err != nil {
			t.Errorf("column %s/%s trips: %v", r.Meta.Policy, r.Meta.Kind, err)
		}
	}
	// ablation-interval races the adaptive policy and runs both fixed
	// baselines per application.
	if byKind[flight.KindFixed] == 0 || byKind[flight.KindRace] == 0 {
		t.Fatalf("missing run kinds: %v", byKind)
	}

	var got RunResponse
	if err := json.Unmarshal(lines[len(lines)-1]["response"], &got); err != nil {
		t.Fatal(err)
	}
	if got.Cached {
		t.Error("streamed run reported cached")
	}

	// Buffered run of the same experiment renders the same bytes.
	code, buffered := post(t, ts, `{"experiment":"ablation-interval","no_cache":true}`)
	if code != http.StatusOK {
		t.Fatalf("buffered run: status %d: %s", code, buffered)
	}
	if want := decodeRun(t, buffered); got.Render != want.Render {
		t.Errorf("streamed render differs from buffered:\n--- stream ---\n%s\n--- buffered ---\n%s", got.Render, want.Render)
	}

	first := ledgerColumns(t, strings.NewReader(raw))
	_, _, raw2, _ := streamLines(t, ts, `{"experiment":"ablation-interval","stream":true}`, "")
	if again := ledgerColumns(t, strings.NewReader(raw2)); !reflect.DeepEqual(again, first) {
		t.Errorf("repeated stream carried %d run columns, the first %d, or different ones", len(again), len(first))
	}
}

// A streamed zoo carries every run column: the zoo's per-cell collector adds
// to the stream's instead of shadowing it, so each (application, penalty)
// cell streams its oracle, its three fixed baselines and its five
// contenders. As a set they are the columns a -ledger-out file records for
// the same configuration at one worker.
func TestStreamZooCarriesEveryColumn(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	code, _, raw, _ := streamLines(t, ts, `{"experiment":"zoo","stream":true,"queue_instrs":15000}`, "")
	if code != http.StatusOK {
		t.Fatalf("streamed zoo: status %d", code)
	}
	l, err := flight.ParseLedger(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]int{}
	for _, r := range l.Runs {
		cells[fmt.Sprintf("%s/%d", r.Meta.App, r.Meta.Penalty)]++
	}
	if len(l.Runs) != 108 || len(cells) != 12 {
		t.Fatalf("stream carried %d run columns in %d cells, want 108 in 12", len(l.Runs), len(cells))
	}
	for cell, n := range cells {
		if n != 9 {
			t.Errorf("cell %s: %d run columns, want 9", cell, n)
		}
	}

	cfg := experiments.DefaultConfig()
	cfg.QueueInstrs = 15000
	path := filepath.Join(t.TempDir(), "zoo.ledger")
	lw, err := flight.CreateLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := flight.WithCollector(sweep.WithWorkers(context.Background(), 1), flight.NewCollector(lw))
	if _, err := experiments.RunCtx(ctx, "zoo", cfg); err != nil {
		t.Fatal(err)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if want := ledgerColumns(t, f); !reflect.DeepEqual(ledgerColumns(t, strings.NewReader(raw)), want) {
		t.Errorf("streamed columns differ from the one-worker ledger's %d", len(want))
	}
}

// SSE negotiation wraps every line in data: frames.
func TestStreamSSE(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	req, err := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(`{"experiment":"fig1a","stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	data := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("non-SSE line %q", line)
		}
		data++
	}
	if data < 2 { // at least the ledger header and the result
		t.Fatalf("only %d SSE events", data)
	}
}

// A mid-stream client disconnect cancels the run: the runner observes the
// cancellation and in_flight returns to zero.
func TestStreamDisconnectCancels(t *testing.T) {
	started := make(chan struct{})
	canceled := make(chan struct{})
	srv := New(Options{
		Runner: func(ctx context.Context, id string, cfg experiments.Config) (experiments.Result, error) {
			close(started)
			<-ctx.Done()
			close(canceled)
			return experiments.Result{}, ctx.Err()
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run", strings.NewReader(`{"experiment":"fig1a","stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("run never started")
	}
	cancel() // client walks away mid-stream
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("disconnect did not cancel the run")
	}
	<-errc
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in_flight stuck at %d after disconnect", srv.InFlight())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Streamed errors arrive in-band: 200 header, terminal "error" line carrying
// the status mapErr would have chosen.
func TestStreamErrorInBand(t *testing.T) {
	srv := New(Options{
		Runner: func(ctx context.Context, id string, cfg experiments.Config) (experiments.Result, error) {
			return experiments.Result{}, context.DeadlineExceeded
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, _, _, lines := streamLines(t, ts, `{"experiment":"fig1a","stream":true}`, "")
	if code != http.StatusOK {
		t.Fatalf("status %d (stream errors are in-band)", code)
	}
	last := lines[len(lines)-1]
	if lineType(t, last) != "error" {
		t.Fatalf("want terminal error line, got %q", lineType(t, last))
	}
	var status int
	json.Unmarshal(last["status"], &status)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("in-band status %d, want 504", status)
	}
}

// Streaming bypasses the response cache and coalescing: every streamed run
// executes, and none populates the cache a buffered request would hit.
func TestStreamBypassesCache(t *testing.T) {
	var runs atomic.Int32
	srv := New(Options{
		Runner: func(ctx context.Context, id string, cfg experiments.Config) (experiments.Result, error) {
			runs.Add(1)
			return fakeResult(id)
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		code, _, _, lines := streamLines(t, ts, `{"experiment":"fig1a","stream":true}`, "")
		if code != http.StatusOK || len(lines) == 0 {
			t.Fatalf("stream %d failed: %d", i, code)
		}
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("streamed runs executed %d times, want 2", got)
	}
	// A buffered request afterwards still computes fresh (cache untouched).
	code, b := post(t, ts, `{"experiment":"fig1a"}`)
	if code != http.StatusOK {
		t.Fatalf("buffered: %d %s", code, b)
	}
	if rr := decodeRun(t, b); rr.Cached {
		t.Error("buffered run hit a cache the streams should not have populated")
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("total runs %d, want 3", got)
	}
}

// A NaN or ±Inf in any float of a run column fails the stream sink loudly,
// in NDJSON and in SSE framing: WriteRun returns an error naming the field,
// which the collector keeps, and no byte of the column reaches the client.
func TestStreamSinkRejectsNonFinite(t *testing.T) {
	column := func() (flight.RunMeta, []flight.Event, flight.RunEnd) {
		meta := flight.RunMeta{App: "gcc", Seed: 1, Sizes: []int{16, 64}, N: 100, Policy: "fixed(0)", Kind: flight.KindFixed}
		evs := []flight.Event{{Cycles: 100, Issued: 100, Size: 16, PeriodNS: 0.5, AdvNS: 50, CumTimeNS: 50, TPI: 0.5, OracleNS: 50}}
		return meta, evs, flight.RunEnd{Intervals: 1, Instrs: 100, TimeNS: 50, TPI: 0.5}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, inEnd := range []bool{false, true} {
			for _, sse := range []bool{false, true} {
				meta, evs, end := column()
				target := reflect.ValueOf(&evs[0]).Elem()
				if inEnd {
					target = reflect.ValueOf(&end).Elem()
				}
				for j := 0; j < target.NumField(); j++ {
					if target.Field(j).Kind() != reflect.Float64 {
						continue
					}
					key, _, _ := strings.Cut(target.Type().Field(j).Tag.Get("json"), ",")
					saved := target.Field(j).Float()
					target.Field(j).SetFloat(v)
					var buf bytes.Buffer
					sink := &streamSink{w: &buf, sse: sse}
					err := sink.WriteRun(1, meta, evs, end)
					if err == nil || !strings.Contains(err.Error(), key) {
						t.Fatalf("%s = %v (sse %v): WriteRun returned %v, want an error naming the field", key, v, sse, err)
					}
					c := flight.NewCollector(sink)
					c.PublishRun(meta, evs, end)
					if c.Err() == nil {
						t.Fatalf("%s = %v (sse %v): collector kept no error", key, v, sse)
					}
					if buf.Len() != 0 {
						t.Fatalf("%s = %v (sse %v): %q reached the client", key, v, sse, buf.String())
					}
					target.Field(j).SetFloat(saved)
				}
			}
		}
	}
}

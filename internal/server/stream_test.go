package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"capsim/internal/experiments"
	"capsim/internal/flight"
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

// A streamed run over the adaptive-policy study produces a parseable ledger
// feed — header, run columns with per-interval events and end summaries, all
// satisfying the ledger invariants — terminated by a result line whose render
// is byte-identical to the buffered response for the same configuration.
func TestStreamRunLedgerAndRender(t *testing.T) {
	// The in-process study memos elide recomputation (and with it, event
	// emission); start cold so the stream carries the actual run columns.
	experiments.ResetCaches()
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

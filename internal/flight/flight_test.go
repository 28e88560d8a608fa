package flight

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"capsim/internal/obs"
)

// mkRun builds a valid synthetic run column: per-interval cycles around a
// base, a penalty charged on each config change, and all derived fields
// computed by the same replay order CheckRun verifies.
func mkRun(policy, kind string, intervals int, penNS float64) (RunMeta, []Event, RunEnd) {
	meta := RunMeta{App: "synap", Seed: 7, Sizes: []int{16, 64}, N: 100, Penalty: 10, Policy: policy, Kind: kind}
	if kind == KindOracle {
		penNS = 0 // the oracle switches free of charge
	}
	var (
		timeNS   float64
		regretNS float64
		instrs   int64
		switches int64
	)
	evs := make([]Event, intervals)
	cur := 0
	for iv := 0; iv < intervals; iv++ {
		cfg := (iv / 3) % 2
		var pen float64
		switched := false
		if cfg != cur {
			pen = penNS
			switched = true
			switches++
			cur = cfg
		}
		cycles := int64(100 + iv%5)
		period := 0.5 + 0.25*float64(cfg)
		adv := float64(cycles) * period
		oracle := adv // synthetic oracle tracks the column's own advance
		if kind != KindOracle {
			oracle = adv - float64(iv%3) // regret = pen + iv%3
		}
		timeNS += 0
		timeNS += pen
		timeNS += adv
		tot := 0 + pen + adv
		regret := tot - oracle
		regretNS += regret
		issued := int64(100)
		instrs += issued
		evs[iv] = Event{
			Interval:    int64(iv),
			Config:      cfg,
			Size:        meta.Sizes[cfg],
			Cycles:      cycles,
			Issued:      issued,
			PeriodNS:    period,
			PenaltyNS:   pen,
			AdvNS:       adv,
			CumTimeNS:   timeNS,
			TPI:         adv / float64(issued),
			OracleCfg:   cfg,
			OracleNS:    oracle,
			RegretNS:    regret,
			CumRegretNS: regretNS,
			Switched:    switched,
		}
	}
	end := RunEnd{
		Intervals:   int64(intervals),
		Instrs:      instrs,
		TimeNS:      timeNS,
		TPI:         timeNS / float64(instrs),
		Switches:    switches,
		CumRegretNS: regretNS,
	}
	return meta, evs, end
}

func TestCheckRunValid(t *testing.T) {
	for _, kind := range []string{KindTrace, KindOracle, KindFixed, KindRace} {
		meta, evs, end := mkRun("p", kind, 20, 3.5)
		if err := CheckRun(meta, evs, end); err != nil {
			t.Fatalf("valid %s run tripped: %v", kind, err)
		}
	}
}

// Trip test 1: cumulative regret must be monotone non-decreasing — a
// negative instantaneous regret trips the checker.
func TestCheckRunTripsNegativeRegret(t *testing.T) {
	meta, evs, end := mkRun("p", KindFixed, 10, 0)
	evs[4].RegretNS = -1
	evs[4].CumRegretNS = evs[3].CumRegretNS - 1
	if err := CheckRun(meta, evs, end); err == nil || !strings.Contains(err.Error(), "negative regret") {
		t.Fatalf("want negative-regret trip, got %v", err)
	}
}

// Trip test 2: the oracle column's regret is identically zero.
func TestCheckRunTripsOracleRegret(t *testing.T) {
	meta, evs, end := mkRun("oracle", KindOracle, 10, 0)
	evs[2].RegretNS = 0.5
	// Keep the running sum self-consistent so the zero-regret invariant is
	// what trips, not the sum replay.
	for iv := 2; iv < len(evs); iv++ {
		evs[iv].CumRegretNS += 0.5
	}
	end.CumRegretNS += 0.5
	if err := CheckRun(meta, evs, end); err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("want oracle-regret trip, got %v", err)
	}
}

// Trip test 3: per-interval cycles × period must reproduce the run's total
// time — corrupting one advance breaks both the per-event product check and
// the end-time replay.
func TestCheckRunTripsTimeSum(t *testing.T) {
	meta, evs, end := mkRun("p", KindTrace, 10, 0)
	evs[7].AdvNS += 1
	if err := CheckRun(meta, evs, end); err == nil || !strings.Contains(err.Error(), "cycles×period") {
		t.Fatalf("want cycles×period trip, got %v", err)
	}
	meta, evs, end = mkRun("p", KindTrace, 10, 0)
	end.TimeNS += 1
	if err := CheckRun(meta, evs, end); err == nil || !strings.Contains(err.Error(), "end time_ns") {
		t.Fatalf("want end-time trip, got %v", err)
	}
}

func TestCheckRunTripsSequenceAndTotals(t *testing.T) {
	meta, evs, end := mkRun("p", KindRace, 10, 2)
	evs[5].Interval = 9
	if err := CheckRun(meta, evs, end); err == nil {
		t.Fatal("want interval-sequence trip")
	}
	meta, evs, end = mkRun("p", KindRace, 10, 2)
	end.Switches++
	if err := CheckRun(meta, evs, end); err == nil {
		t.Fatal("want switches trip")
	}
	meta, evs, end = mkRun("p", KindRace, 10, 2)
	end.Instrs--
	if err := CheckRun(meta, evs, end); err == nil {
		t.Fatal("want instrs trip")
	}
}

// memSink accumulates runs in memory.
type memSink struct {
	mu    sync.Mutex
	runs  []int64
	metas []RunMeta
	evs   [][]Event
	ends  []RunEnd
	progs []Progress
	err   error
}

func (s *memSink) WriteRun(run int64, meta RunMeta, events []Event, end RunEnd) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.runs = append(s.runs, run)
	s.metas = append(s.metas, meta)
	s.evs = append(s.evs, append([]Event(nil), events...))
	s.ends = append(s.ends, end)
	return nil
}

func (s *memSink) WriteProgress(p Progress) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.progs = append(s.progs, p)
	return nil
}

// An inner collector adds to the outer ones and never shadows them: every
// collector on the chain receives every run and progress pulse, numbered by
// its own run ids, and a sibling context never sees the inner collector.
func TestNestedCollectors(t *testing.T) {
	if Active(context.Background()) || Active(WithCollector(context.Background(), nil)) {
		t.Fatal("Active true on a bare context")
	}
	outerSink, innerSink := &memSink{}, &memSink{}
	outer := WithCollector(context.Background(), NewCollector(outerSink))
	inner := WithCollector(outer, NewCollector(innerSink))
	if !Active(outer) || !Active(inner) {
		t.Fatal("collectors installed but Active is false")
	}

	meta, evs, end := mkRun("p", KindTrace, 5, 0)
	Publish(outer, meta, evs, end) // outer only: run 1 there
	Publish(inner, meta, evs, end) // both: run 2 outer, run 1 inner
	Publish(inner, meta, evs, end) // both: run 3 outer, run 2 inner
	PublishProgress(inner, Progress{Done: 1, Total: 2})
	if !reflect.DeepEqual(outerSink.runs, []int64{1, 2, 3}) {
		t.Fatalf("outer run ids %v, want [1 2 3]", outerSink.runs)
	}
	if !reflect.DeepEqual(innerSink.runs, []int64{1, 2}) {
		t.Fatalf("inner run ids %v, want [1 2]", innerSink.runs)
	}
	if len(outerSink.progs) != 1 || len(innerSink.progs) != 1 {
		t.Fatalf("progress missed: outer=%d inner=%d", len(outerSink.progs), len(innerSink.progs))
	}

	// Two children of one parent each extend the parent's chain alone, also
	// when the parent's chain has room to grow in place.
	third := WithCollector(inner, NewCollector(&memSink{}))
	aSink, bSink := &memSink{}, &memSink{}
	a := WithCollector(third, NewCollector(aSink))
	WithCollector(third, NewCollector(bSink))
	Publish(a, meta, evs, end)
	if len(aSink.runs) != 1 || len(bSink.runs) != 0 {
		t.Fatalf("sibling publication leaked: a=%d b=%d", len(aSink.runs), len(bSink.runs))
	}
}

func TestCollectorSinkErrorGoesQuiet(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	dropped0 := obsDropped.Value()

	s := &memSink{err: fmt.Errorf("disk full")}
	c := NewCollector(s)
	meta, evs, end := mkRun("p", KindTrace, 3, 0)
	c.PublishRun(meta, evs, end)
	c.PublishRun(meta, evs, end)
	if c.Err() == nil {
		t.Fatal("sink error not surfaced")
	}
	if len(s.runs) != 0 {
		t.Fatal("runs recorded despite sink error")
	}
	// Both runs are dropped: the one whose write failed and the one the
	// quiet collector refused.
	if got := obsDropped.Value() - dropped0; got != 2 {
		t.Fatalf("flight.dropped_runs delta %d, want 2", got)
	}
}

// Concurrent publication through one collector must be race-free and assign
// unique run ids (the ci-race lane exercises this under -race).
func TestCollectorConcurrentPublish(t *testing.T) {
	s := &memSink{}
	c := NewCollector(s)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			meta, evs, end := mkRun("p", KindTrace, 4, 0)
			for i := 0; i < 25; i++ {
				c.PublishRun(meta, evs, end)
			}
		}()
	}
	wg.Wait()
	if len(s.runs) != 200 {
		t.Fatalf("got %d runs, want 200", len(s.runs))
	}
	seen := map[int64]bool{}
	for _, id := range s.runs {
		if seen[id] {
			t.Fatalf("duplicate run id %d", id)
		}
		seen[id] = true
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	for _, name := range []string{"run.ndjson", "run.ndjson.gz"} {
		path := filepath.Join(t.TempDir(), name)
		lw, err := CreateLedger(path)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCollector(lw)
		m1, e1, d1 := mkRun("fixed(0)", KindFixed, 12, 0)
		m2, e2, d2 := mkRun("oracle", KindOracle, 12, 0)
		c.PublishRun(m1, e1, d1)
		c.PublishRun(m2, e2, d2)
		c.PublishProgress(Progress{Done: 1, Total: 2}) // file sink drops these
		if err := lw.Close(); err != nil {
			t.Fatal(err)
		}

		in, err := ReadReportInput(path)
		if err != nil {
			t.Fatal(err)
		}
		if in.Ledger == nil || len(in.Ledger.Warnings) != 0 {
			t.Fatalf("%s: not read back as a clean ledger: %+v", name, in)
		}
		l := *in.Ledger
		if l.Schema != Schema {
			t.Fatalf("schema %q", l.Schema)
		}
		if len(l.Runs) != 2 {
			t.Fatalf("%s: got %d runs, want 2", name, len(l.Runs))
		}
		if !reflect.DeepEqual(l.Runs[0].Meta, m1) || l.Runs[1].Meta.Policy != "oracle" {
			t.Fatalf("%s: meta mismatch: %+v", name, l.Runs[0].Meta)
		}
		if len(l.Runs[0].Events) != 12 || l.Runs[0].End != d1 || l.Runs[1].End != d2 {
			t.Fatalf("%s: run payload mismatch", name)
		}
		// Everything that came back must still satisfy the invariants.
		for _, r := range l.Runs {
			if err := CheckRun(r.Meta, r.Events, r.End); err != nil {
				t.Fatalf("%s: round-tripped run trips: %v", name, err)
			}
		}
	}
}

func TestParseLedgerTruncated(t *testing.T) {
	var b strings.Builder
	if err := EncodeHeader(&b, ""); err != nil {
		t.Fatal(err)
	}
	meta, evs, _ := mkRun("p", KindTrace, 3, 0)
	// Emit run + events but no end line: a stream cut mid-run.
	if err := EncodeRun(&b, 1, meta, evs, RunEnd{}); err != nil {
		t.Fatal(err)
	}
	cut := b.String()
	cut = cut[:strings.LastIndex(strings.TrimRight(cut, "\n"), "\n")+1]
	l, err := ParseLedger(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("mid-run cut must degrade to a warning, got error: %v", err)
	}
	if len(l.Runs) != 0 {
		t.Fatalf("endless run kept: %d runs", len(l.Runs))
	}
	if len(l.Warnings) == 0 || !strings.Contains(l.Warnings[0], "no end line") {
		t.Fatalf("want no-end-line warning, got %v", l.Warnings)
	}
}

func TestParseLedgerRejectsGarbage(t *testing.T) {
	if _, err := ParseLedger(strings.NewReader("{\"t\":\"iv\",\"run\":1}\n")); err == nil {
		t.Fatal("want error for event before run line")
	}
	if _, err := ParseLedger(strings.NewReader("not json\n")); err == nil {
		t.Fatal("want error for non-JSON input")
	}
	if _, err := ParseLedger(strings.NewReader("{\"t\":\"other\"}\n")); err == nil {
		t.Fatal("want error for missing header")
	}
	// Two ledgers concatenated into one file repeat run 1: the second run
	// line must not replace the first run.
	one := validLedger(t)
	_, err := ParseLedger(strings.NewReader(one + one))
	if err == nil || !strings.Contains(err.Error(), "duplicate run 1") {
		t.Fatalf("want duplicate-run error, got %v", err)
	}
	if want := fmt.Sprintf("line %d:", strings.Count(one, "\n")+2); !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("duplicate-run error %q does not name line %s", err, want)
	}
}

// validLedger encodes a header and one complete run.
func validLedger(t testing.TB) string {
	var b strings.Builder
	if err := EncodeHeader(&b, ""); err != nil {
		t.Fatal(err)
	}
	meta, evs, end := mkRun("p", KindFixed, 3, 0)
	if err := EncodeRun(&b, 1, meta, evs, end); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// FuzzParseLedger feeds arbitrary bytes to the ledger reader: it must never
// panic, nor must Report over what it returns, and a successful parse holds
// only distinct, ended runs.
func FuzzParseLedger(f *testing.F) {
	one := validLedger(f)
	f.Add([]byte(one))
	f.Add([]byte(one + one))
	f.Add([]byte(one[:len(one)/2]))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ParseLedger(bytes.NewReader(data))
		if err != nil {
			return
		}
		seen := map[int64]bool{}
		for _, r := range l.Runs {
			if seen[r.Run] {
				t.Fatalf("run %d returned twice", r.Run)
			}
			seen[r.Run] = true
			if !r.ended {
				t.Fatalf("run %d returned without its end line", r.Run)
			}
		}
		_ = Report([]ReportInput{{Path: "fuzz", Ledger: &l}})
	})
}

package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"capsim/internal/cache"
	"capsim/internal/experiments"
	"capsim/internal/flight"
	"capsim/internal/memo"
	"capsim/internal/obs"
	"capsim/internal/sweep"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// The per-layer trace (-trace 1) splits one serial registry run into the
// self time of each layer, bottom-up: every layer's public entry points are
// called, inside a harness span, only after the layers below them have been
// materialized, so a span holds that layer's own work. Rows that sum to the
// untraced serial wall are marked Σ in README.md; "other" is what no layer
// accounts for. The trace is the same whichever workload is named.
//
// Steps:
//  1. Calibration: the registry runs in-process, serially, telemetry off,
//     against an empty study cache. Its wall is serial_wall_ms; its trace
//     store lengths and study-cache entries drive the traced pass.
//  2. The traced pass, telemetry on, layer by layer (trace, classify, cache,
//     ooo, core, flight, memo, experiments) with obs counter deltas taken at
//     every span boundary.
//  3. A short API session (server metrics) and paired telemetry-off/on CLI
//     runs of registry-cold and zoo-ledger at -parallel 2 (sweep metrics).

// layerMetrics are reported with -trace 1.
var layerMetrics = []metricDef{
	{"trace.gen_ms", "ms"},
	{"trace.decode_ms", "ms"},
	{"trace.items", "count"},
	{"trace.ns_per_item", "ns"},
	{"trace.bytes_ratio", "ratio"},
	{"classify.ms", "ms"},
	{"classify.gens", "count"},
	{"classify.replays_per_gen", "ratio"},
	{"cache.ms", "ms"},
	{"cache.refs", "count"},
	{"cache.ns_per_ref", "ns"},
	{"cache.fast_hit_frac", "ratio"},
	{"ooo.ms", "ms"},
	{"ooo.instrs", "count"},
	{"ooo.ns_per_instr", "ns"},
	{"ooo.idle_skip_frac", "ratio"},
	{"core.race_ms", "ms"},
	{"core.cells", "count"},
	{"core.ns_per_cell", "ns"},
	{"flight.ms", "ms"},
	{"flight.events", "count"},
	{"flight.ledger_bytes", "B"},
	{"flight.ns_per_event", "ns"},
	{"memo.read_ms", "ms"},
	{"memo.write_ms", "ms"},
	{"memo.entries", "count"},
	{"memo.store_bytes", "B"},
	{"memo.persist_hit_frac", "ratio"},
	{"memo.wait_ms", "ms"},
	{"experiments.compose_ms", "ms"},
	{"experiments.render_ms", "ms"},
	{"experiments.render_bytes", "B"},
	{"server.overhead_ms_p50", "ms"},
	{"server.cache_hit_frac", "ratio"},
	{"server.rejected", "count"},
	{"server.hit_p95_ms", "ms"},
	{"server.fresh_p50_ms", "ms"},
	{"server.fresh_p90_ms", "ms"},
	{"sweep.util", "ratio"},
	{"sweep.jobs", "count"},
	{"obs_overhead_frac", "ratio"},
	{"serial_wall_ms", "ms"},
	{"other_ms", "ms"},
	{"other_frac", "ratio"},
	{"trace.leak_chunks", "count"},
	{"ooo.leak_instrs", "count"},
	{"classify.leak_gens", "count"},
}

// serialLayers are the spans whose self times add up, with other_ms, to the
// untraced serial wall. flight (only zoo-ledger encodes a ledger) and
// memo.read (only a warm cache reads) are measured but not part of a cold
// serial run.
var serialLayers = []string{
	"trace.gen", "trace.decode", "classify", "cache", "ooo", "core",
	"memo.write", "experiments.compose", "experiments.render",
}

// span is one harness-timed call into a layer. Start and End are offsets
// from the start of the traced pass; WallMS is its duration normalized to
// the reference host speed (probe.go); Cause is the experiment whose study
// rows first needed the call; Counters are the obs counter deltas across it.
type span struct {
	Layer    string           `json:"layer"`
	Name     string           `json:"name"`
	Cause    string           `json:"cause"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	WallMS   float64          `json:"wall_ms"`
	Counters map[string]int64 `json:"counters,omitempty"`
	meas     *measure
}

// tracer keeps the spans in memory until the run ends; the first error
// stops further spans. Between spans it probes the host whenever its meter
// is due.
type tracer struct {
	t0    time.Time
	m     *meter
	spans []span
	err   error
}

func (t *tracer) span(layer, name, cause string, fn func() error) {
	if t.err != nil {
		return
	}
	before := obs.TakeSnapshot()
	start := time.Now()
	err := fn()
	end := time.Now()
	s := span{
		Layer: layer, Name: name, Cause: cause,
		StartNS:  start.Sub(t.t0).Nanoseconds(),
		EndNS:    end.Sub(t.t0).Nanoseconds(),
		Counters: obs.TakeSnapshot().DiffCounters(before),
		meas:     &measure{},
	}
	t.m.add(s.meas, end.Sub(start), 0)
	t.spans = append(t.spans, s)
	if t.m.untilDue() <= 0 {
		t.m.probe()
	}
	if err != nil {
		t.err = fmt.Errorf("%s %s: %w", layer, name, err)
	}
}

// finish closes the last segment and fills in the normalized durations.
func (t *tracer) finish() {
	t.m.probe()
	for i := range t.spans {
		t.spans[i].WallMS = t.spans[i].meas.wall
	}
}

// ms is the summed normalized duration of the layer's spans.
func (t *tracer) ms(layer string) float64 {
	var sum float64
	for _, s := range t.spans {
		if s.Layer == layer {
			sum += s.WallMS
		}
	}
	return sum
}

// count sums a counter's deltas over the spans of the given layers, or of
// every layer but them when except is set.
func (t *tracer) count(counter string, except bool, layers ...string) int64 {
	var n int64
	for _, s := range t.spans {
		in := false
		for _, l := range layers {
			in = in || s.Layer == l
		}
		if in != except {
			n += s.Counters[counter]
		}
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// experimentsConfig is the in-process equivalent of budgetArgs.
func (b *bench) experimentsConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Seed = b.seed
	cfg.CacheRefs = benchInputs.cacheRefs
	cfg.CacheWarmRefs = benchInputs.cacheWarm
	cfg.QueueInstrs = benchInputs.queueInstrs
	return cfg
}

func registryIDs() []string {
	if benchInputs.experiments == "all" {
		return experiments.IDs()
	}
	return strings.Split(benchInputs.experiments, ",")
}

// traceRun measures the per-layer table.
func (b *bench) traceRun() (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	cfg := b.experimentsConfig()
	ids := registryIDs()
	ctx := context.Background()

	prevWorkers := sweep.DefaultWorkers()
	defer func() {
		obs.SetEnabled(false)
		sweep.SetDefaultWorkers(prevWorkers)
		experiments.SetStudyCacheDir("")
		experiments.ResetCaches()
	}()
	sweep.SetDefaultWorkers(1)
	obs.SetEnabled(false)
	experiments.ResetCaches()

	// 1. Calibration.
	primed, err := b.tempDir()
	if err != nil {
		return nil, err
	}
	if err := experiments.SetStudyCacheDir(primed); err != nil {
		return nil, err
	}
	renders := map[string]string{}
	var all strings.Builder
	var serial measure
	m := newMeter()
	for _, id := range ids {
		t0 := time.Now()
		res, err := experiments.RunCtx(ctx, id, cfg)
		if err != nil {
			return nil, fmt.Errorf("calibration %s: %w", id, err)
		}
		renders[id] = res.Render()
		m.add(&serial, time.Since(t0), 0)
		if m.untilDue() <= 0 {
			m.probe()
		}
		all.WriteString(renders[id])
	}
	o.attempted += len(ids)
	o.digest = sha([]byte(all.String()))
	p := buildPlan(cfg, ids)
	lengths := storeLengths(cfg, p.geometries())
	experiments.ResetCaches()
	if err := experiments.SetStudyCacheDir(""); err != nil {
		return nil, err
	}

	// 2. The traced pass.
	obs.SetEnabled(true)
	t := &tracer{t0: time.Now(), m: m}
	for _, l := range lengths {
		if l.refs > 0 {
			t.span("trace.gen", "refs "+l.b.Name, "", func() error { drainRefs(l.b, cfg.Seed, l.refs); return nil })
		}
		if l.ops > 0 {
			t.span("trace.gen", "ops "+l.b.Name, "", func() error { drainOps(l.b, cfg.Seed, l.ops); return nil })
		}
	}
	for _, l := range lengths {
		for g, n := range l.decoded {
			t.span("trace.decode", fmt.Sprintf("%s %+v", l.b.Name, g), "", func() error { drainDecoded(l.b, cfg.Seed, g, n); return nil })
		}
	}
	raceCells, cols := p.run(ctx, t)
	ledger := filepath.Join(b.work, "trace.ledger.gz")
	var events int64
	t.span("flight", "ledger", "zoo", func() error {
		events = 0
		lw, err := flight.CreateLedger(ledger)
		if err != nil {
			return err
		}
		for i, c := range cols.runs {
			if err := lw.WriteRun(int64(i+1), c.meta, c.events, c.end); err != nil {
				lw.Close()
				return err
			}
			events += int64(len(c.events))
		}
		return lw.Close()
	})
	entries, storeBytes, err := readStore(primed)
	if err != nil {
		return nil, err
	}
	b.traceMemo(t, primed, entries)
	if err := experiments.SetStudyCacheDir(primed); err != nil {
		return nil, err
	}
	for _, id := range ids {
		var res experiments.Result
		t.span("experiments.compose", id, id, func() error {
			var err error
			res, err = experiments.RunCtx(ctx, id, cfg)
			return err
		})
		var r string
		t.span("experiments.render", id, id, func() error { r = res.Render(); return nil })
		if t.err == nil && r != renders[id] {
			o.failed++
			o.problem("%s rendered from the primed study cache differs from its cold render", id)
		}
	}
	obs.SetEnabled(false)
	if t.err != nil {
		return nil, t.err
	}
	t.finish()
	o.spans = t.spans

	// The layer table. Times are normalized (probe.go).
	r := o.metrics
	r["trace.gen_ms"] = t.ms("trace.gen")
	r["trace.decode_ms"] = t.ms("trace.decode")
	items := float64((t.count("trace.ref_chunks", false, "trace.gen") + t.count("trace.op_chunks", false, "trace.gen")) * trace.ChunkLen)
	r["trace.items"] = items
	r["trace.ns_per_item"] = ratio(r["trace.gen_ms"]*1e6, items)
	r["trace.bytes_ratio"] = ratio(float64(t.count("trace.bytes", false, "trace.gen")), float64(t.count("trace.bytes_raw", false, "trace.gen")))
	r["classify.ms"] = t.ms("classify")
	gens := float64(t.count("classify.gens", false, "classify"))
	r["classify.gens"] = gens
	r["classify.replays_per_gen"] = ratio(float64(t.count("classify.replays", true)), gens)
	r["cache.ms"] = t.ms("cache")
	refs := float64(t.count("cache.multi.refs", false, "cache"))
	r["cache.refs"] = refs
	r["cache.ns_per_ref"] = ratio(r["cache.ms"]*1e6, refs)
	r["cache.fast_hit_frac"] = ratio(float64(t.count("cache.multi.fast_hits", false, "cache")), refs)
	r["ooo.ms"] = t.ms("ooo")
	instrs := float64(t.count("ooo.instrs", false, "ooo"))
	r["ooo.instrs"] = instrs
	r["ooo.ns_per_instr"] = ratio(r["ooo.ms"]*1e6, instrs)
	r["ooo.idle_skip_frac"] = ratio(float64(t.count("ooo.idle_skipped", false, "ooo")), float64(t.count("ooo.cycles", false, "ooo")))
	r["core.race_ms"] = t.ms("core")
	cells := t.count("policy.cells", false, "core")
	r["core.cells"] = float64(cells)
	r["core.ns_per_cell"] = ratio(r["core.race_ms"]*1e6, float64(cells))
	if cells != raceCells {
		o.problem("core spans computed %d policy cells, the races alone %d: interval families were not materialized by the ooo layer", cells, raceCells)
	}
	r["flight.ms"] = t.ms("flight")
	r["flight.events"] = float64(events)
	if fi, err := os.Stat(ledger); err == nil {
		r["flight.ledger_bytes"] = float64(fi.Size())
	}
	r["flight.ns_per_event"] = ratio(r["flight.ms"]*1e6, float64(events))
	r["memo.read_ms"] = t.ms("memo.read")
	r["memo.write_ms"] = t.ms("memo.write")
	r["memo.entries"] = float64(len(entries))
	r["memo.store_bytes"] = float64(storeBytes)
	hits := t.count("memo.persist_hits", false, "memo.read")
	r["memo.persist_hit_frac"] = ratio(float64(hits), float64(hits+t.count("memo.persist_misses", false, "memo.read")))
	// The compose spans read the primed cache again (a row used by several
	// experiments is read once per use); that read time belongs to memo.
	rereads := float64(t.count("memo.persist_hits", false, "experiments.compose"))
	r["experiments.compose_ms"] = t.ms("experiments.compose") - r["memo.read_ms"]*ratio(rereads, float64(len(entries)))
	r["experiments.render_ms"] = t.ms("experiments.render")
	r["experiments.render_bytes"] = float64(all.Len())
	r["serial_wall_ms"] = serial.wall
	var accounted float64
	for _, l := range serialLayers {
		accounted += t.ms(l)
	}
	accounted -= t.ms("experiments.compose") - r["experiments.compose_ms"]
	r["other_ms"] = r["serial_wall_ms"] - accounted
	r["other_frac"] = ratio(r["other_ms"], r["serial_wall_ms"])
	r["trace.leak_chunks"] = float64(t.count("trace.ref_chunks", true, "trace.gen", "trace.decode") +
		t.count("trace.op_chunks", true, "trace.gen", "trace.decode") +
		t.count("trace.dec_chunks", true, "trace.gen", "trace.decode"))
	r["ooo.leak_instrs"] = float64(t.count("ooo.instrs", true, "ooo", "core"))
	r["classify.leak_gens"] = float64(t.count("classify.gens", true, "classify"))

	// 3a. The zoo ledger the flight layer wrote must replay into the zoo's
	// tables.
	if zoo, ok := renders["zoo"]; ok {
		o.attempted++
		if err := b.checkLedger(ledger, []byte(zoo)); err != nil {
			o.failed++
			o.problem("trace ledger: %v", err)
		}
	}
	// 3b. Server metrics from a short API session.
	s := b.apiSession(o, 1, int64(benchInputs.traceRequests))
	r["server.overhead_ms_p50"] = median(s.overhead)
	r["server.cache_hit_frac"] = ratio(s.prom["capsim_server_cache_hits_total"], s.prom["capsim_server_run_ok_total"])
	r["server.rejected"] = s.prom["capsim_server_rejected_busy_total"] + s.prom["capsim_server_rejected_draining_total"]
	r["server.hit_p95_ms"] = percentile(s.hit, 95)
	r["server.fresh_p50_ms"] = median(s.fresh)
	r["server.fresh_p90_ms"] = percentile(s.fresh, 90)
	// 3c. Sweep utilization and telemetry overhead at -parallel 2.
	b.sweepSamples(o, m, all.String())
	return o, nil
}

// traceMemo times the persistent study cache: reading every entry of the
// primed store, and publishing the same payloads into an empty one.
func (b *bench) traceMemo(t *tracer, primed string, entries []storeEntry) {
	src, err := memo.OpenStore(primed)
	if err != nil {
		t.err = err
		return
	}
	t.span("memo.read", fmt.Sprintf("%d entries", len(entries)), "", func() error {
		for _, e := range entries {
			if _, ok := src.GetBytes(e.Key); !ok {
				return fmt.Errorf("entry %q unreadable", e.Key)
			}
		}
		return nil
	})
	dir, err := b.tempDir()
	if err != nil {
		t.err = err
		return
	}
	dst, err := memo.OpenStore(dir)
	if err != nil {
		t.err = err
		return
	}
	t.span("memo.write", fmt.Sprintf("%d entries", len(entries)), "", func() error {
		for _, e := range entries {
			if err := dst.PutBytes(e.Key, e.Payload); err != nil {
				return err
			}
		}
		return nil
	})
}

// storeEntry decodes a study-cache file (memo's on-disk envelope; gob
// matches fields by name).
type storeEntry struct {
	Schema  string
	Key     string
	Sum     uint32
	Payload []byte
}

// readStore loads every entry of the study cache rooted at dir, and the
// cache's size on disk.
func readStore(dir string) ([]storeEntry, int64, error) {
	s, err := memo.OpenStore(dir)
	if err != nil {
		return nil, 0, err
	}
	var out []storeEntry
	var size int64
	err = filepath.WalkDir(s.Dir(), func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(p) != ".gob" {
			return err
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var e storeEntry
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&e); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, e)
		size += int64(len(raw))
		return nil
	})
	return out, size, err
}

// sweepSamples runs registry-cold and zoo-ledger once each with telemetry
// off and once with it on (-metrics-out), at -parallel 2. The telemetry-off
// runs give how busy the sweep pool keeps the two CPUs; the obs-on runs'
// manifests give the job count and the memo layer's singleflight wait
// time; the pairs give the telemetry overhead, from wall times normalized
// under m. Every render must equal the in-process calibration's.
func (b *bench) sweepSamples(o *outcome, m *meter, registryRender string) {
	var offWall, offCPU, waitNS, jobs float64
	var off, on []*measure
	zooLedger := filepath.Join(b.work, "sample.ledger.gz")
	samples := []struct {
		name string
		args func(store string) []string
	}{
		{"registry-cold", b.registryArgs},
		{"zoo-ledger", func(string) []string {
			return append([]string{"-experiment", "zoo", "-parallel", "2", "-ledger-out", zooLedger}, b.budgetArgs()...)
		}},
	}
	var zooRender []byte
	for _, s := range samples {
		var renders [2][]byte
		for i, metricsOut := range []string{"", filepath.Join(b.work, s.name+".manifest.json")} {
			o.attempted++
			store, err := b.tempDir()
			if err != nil {
				o.failed++
				o.problem("%v", err)
				continue
			}
			args := s.args(store)
			if metricsOut != "" {
				args = append(args, "-metrics-out", metricsOut)
			}
			p, err := b.capsim(m, args...)
			os.RemoveAll(store)
			if err != nil {
				o.failed++
				o.problem("%v", err)
				continue
			}
			renders[i] = stripFooters(p.stdout)
			if metricsOut == "" {
				offWall += p.wall.Seconds()
				offCPU += p.cpu.Seconds()
				off = append(off, p.meas)
				continue
			}
			on = append(on, p.meas)
			var man struct {
				Final struct {
					Counters   map[string]float64 `json:"counters"`
					Histograms map[string]struct {
						Sum float64 `json:"sum"`
					} `json:"histograms"`
				} `json:"final"`
			}
			raw, err := os.ReadFile(metricsOut)
			if err == nil {
				err = json.Unmarshal(raw, &man)
			}
			if err != nil {
				o.failed++
				o.problem("%s manifest: %v", s.name, err)
				continue
			}
			jobs += man.Final.Counters["sweep.jobs"]
			waitNS += man.Final.Histograms["memo.wait_ns"].Sum
		}
		if !bytes.Equal(renders[0], renders[1]) {
			o.failed++
			o.problem("%s rendered differently with telemetry on", s.name)
		}
		if s.name == "registry-cold" && string(renders[0]) != registryRender {
			o.failed++
			o.problem("registry-cold at -parallel 2 rendered differently from the serial in-process run")
		}
		if s.name == "zoo-ledger" {
			zooRender = renders[0]
		}
	}
	if err := b.checkLedger(zooLedger, zooRender); err != nil {
		o.failed++
		o.problem("sample ledger: %v", err)
	}
	m.probe()
	wall := func(ms []*measure) (sum float64) {
		for _, x := range ms {
			sum += x.wall
		}
		return sum
	}
	o.metrics["sweep.util"] = ratio(offCPU, 2*offWall)
	o.metrics["sweep.jobs"] = jobs
	o.metrics["memo.wait_ms"] = waitNS / 1e6
	o.metrics["obs_overhead_frac"] = ratio(wall(on), wall(off)) - 1
}

// storeLen is how far the calibration materialized one benchmark's trace
// stores.
type storeLen struct {
	b         workload.Benchmark
	refs, ops int64
	decoded   map[trace.Geometry]int64
}

// traceBenchmarks are every benchmark a trace store can exist for.
func traceBenchmarks() []workload.Benchmark {
	return append(workload.All(), workload.ZooApps()...)
}

// storeLengths reads the materialized length of every trace store the
// calibration left behind.
func storeLengths(cfg experiments.Config, geoms []trace.Geometry) []storeLen {
	var out []storeLen
	for _, bm := range traceBenchmarks() {
		l := storeLen{b: bm, ops: trace.OpsFor(bm, cfg.Seed).Len(), decoded: map[trace.Geometry]int64{}}
		if bm.Mem != nil {
			s := trace.RefsFor(bm, cfg.Seed)
			l.refs = s.Len()
			for _, g := range geoms {
				if n := trace.DecodedFor(s, g).Len(); n > 0 {
					l.decoded[g] = n
				}
			}
		}
		out = append(out, l)
	}
	return out
}

func drainRefs(b workload.Benchmark, seed uint64, n int64) {
	c := trace.RefsFor(b, seed).Cursor()
	for i := int64(0); i < n; i++ {
		c.Next()
	}
}

func drainOps(b workload.Benchmark, seed uint64, n int64) {
	c := trace.OpsFor(b, seed).Cursor()
	buf := make([]workload.Instr, trace.ChunkLen)
	for done := int64(0); done < n; {
		done += int64(c.CopyNext(buf[:min(int64(len(buf)), n-done)]))
	}
}

func drainDecoded(b workload.Benchmark, seed uint64, g trace.Geometry, n int64) {
	c := trace.DecodedFor(trace.RefsFor(b, seed), g).Cursor()
	for i := int64(0); i < n; i++ {
		c.NextDecoded()
	}
}

func geometry(p cache.Params) trace.Geometry {
	return trace.Geometry{BlockBytes: p.BlockBytes, Sets: p.Sets()}
}

// classifyBudget mirrors the classification-stream length core's joint
// kernel materializes (core.classifyBudget).
func classifyBudget(intervals, n int64, maxWindow, issueWidth int, rpi float64) int64 {
	instrs := intervals*(n+int64(issueWidth)) + int64(maxWindow)
	return int64(float64(instrs)*rpi) + 2
}

// recorder is a flight sink that keeps every published run column, so the
// flight layer can be timed encoding them after the race.
type recorder struct{ runs []column }

type column struct {
	meta   flight.RunMeta
	events []flight.Event
	end    flight.RunEnd
}

func (r *recorder) WriteRun(_ int64, meta flight.RunMeta, events []flight.Event, end flight.RunEnd) error {
	r.runs = append(r.runs, column{meta, events, end})
	return nil
}

func (r *recorder) WriteProgress(flight.Progress) error { return nil }

// tee forwards each run to the zoo's own capture and to the recorder.
type tee []flight.Sink

func (t tee) WriteRun(run int64, meta flight.RunMeta, events []flight.Event, end flight.RunEnd) error {
	for _, s := range t {
		if err := s.WriteRun(run, meta, events, end); err != nil {
			return err
		}
	}
	return nil
}

func (t tee) WriteProgress(flight.Progress) error { return nil }

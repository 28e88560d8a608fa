// Command capsim regenerates the tables and figures of the CAP paper
// (Albonesi, "Dynamic IPC/Clock Rate Optimization", ISCA 1998).
//
// Usage:
//
//	capsim -list
//	capsim -experiment fig9
//	capsim -experiment all -cache-refs 2000000 -queue-instrs 1000000
//	capsim -experiment all -parallel 8
//	capsim -experiment fig7 -parallel 1 -cpuprofile fig7.pprof
//	capsim -experiment all -trace-out run.trace.json   # Chrome trace timeline
//	capsim -experiment all -metrics-out run.json       # run manifest + counters
//	capsim -experiment all -serve :8417                # live expvar endpoint
//	capsim -experiment fig10 -obs-assert               # runtime invariant checks
//	capsim -experiment ablation-interval -ledger-out run.ledger.gz  # flight recorder
//	capsim -experiment zoo -ledger-out zoo.ledger.gz   # policy league race
//	capsim -report run.ledger.gz,run.json              # offline regret analysis
//
// Output is byte-identical at every -parallel setting: simulation jobs derive
// their random streams from (seed, benchmark, purpose) and results are
// collected by grid index, so the worker count changes only the wall time.
// -trace-budget and -study-cache likewise change only wall time and memory.
// The telemetry flags
// (-obs, -trace-out, -metrics-out, -serve, -obs-assert) never change stdout
// either: observability receives statistics, it does not feed them back (all
// telemetry notices go to stderr; `make ci`'s bench-obs-smoke enforces the
// byte identity).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"capsim/internal/experiments"
	"capsim/internal/flight"
	"capsim/internal/obs"
	"capsim/internal/server"
	"capsim/internal/sweep"
	"capsim/internal/tech"
	"capsim/internal/trace"
)

// main is a thin shell around run: all error paths return through run's
// single exit point so every deferred cleanup — pprof.StopCPUProfile, the
// profile file's Close, obs.StopTrace flushing the Chrome trace array —
// executes before the process decides its exit status. (The old main called
// os.Exit mid-function, which skipped the deferred StopCPUProfile and
// silently truncated profiles on any later error.)
func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "capsim: %v\n", err)
		if ec, ok := err.(exitCoder); ok {
			os.Exit(ec.code)
		}
		os.Exit(1)
	}
}

// exitCoder carries a specific exit status through run's error return.
type exitCoder struct {
	error
	code int
}

// usageErr wraps a usage problem with exit status 2 (flag package convention).
func usageErr(format string, args ...any) error {
	return exitCoder{fmt.Errorf(format, args...), 2}
}

func run() (err error) {
	var (
		list        = flag.Bool("list", false, "list available experiments and exit")
		experiment  = flag.String("experiment", "", "experiment id, comma-separated list of ids, or 'all'")
		seed        = flag.Uint64("seed", 1998, "master workload seed")
		cacheRefs   = flag.Int64("cache-refs", 400_000, "measured references per cache configuration")
		cacheWarm   = flag.Int64("cache-warm", 100_000, "warm-up references per cache configuration")
		queueInstrs = flag.Int64("queue-instrs", 150_000, "measured instructions per queue configuration")
		interval    = flag.Int64("interval", 2_000, "interval length in instructions (Section 6 studies)")
		penalty     = flag.Int("switch-penalty", -1, "clock-switch penalty in cycles (-1 = default)")
		feature     = flag.Float64("feature", 0.18, "feature size in microns (0.25, 0.18, 0.12)")
		parallel    = flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker count (1 = serial; output is identical at any setting)")
		traceBudget = flag.Int64("trace-budget", 0, "materialized-trace byte ceiling; cold stores evict and regenerate on demand (0 = unbounded; output is identical at any setting)")
		studyCache  = flag.String("study-cache", "", "persistent content-addressed study cache directory; repeated runs, CI and shard workers reuse finished profiling rows instead of recomputing (output is identical with or without)")
		studyBudget = flag.Int64("study-cache-budget", 0, "study-cache byte ceiling: publications past it evict least-recently-used entries, deterministically (0 = unbounded; output is identical at any setting)")
		shardSpec   = flag.String("shard", "", "run as static shard i/N: compute and publish only the study rows bucket i owns, render nothing (requires -study-cache)")
		shardCoord  = flag.Int("shard-coordinator", 0, "spawn N worker processes over the work-claiming protocol, then render the merge (requires -study-cache; output is byte-identical to an unsharded run)")
		shardBucket = flag.Int("shard-buckets", 0, "shard-coordinator: bucket-space size (default 4N, so fast workers absorb slow workers' tail)")
		shardClaim  = flag.String("shard-claim", "", "run as dynamic shard worker claiming buckets from this coordinator URL until exhausted (requires -study-cache)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		ledgerOut   = flag.String("ledger-out", "", "write the flight-recorder decision ledger (per-interval NDJSON, gzip when the path ends in .gz) of every adaptive-policy run to this file")
		reportIn    = flag.String("report", "", "offline ledger analysis: read comma-separated ledger/manifest files, print regret, switch-rate and dwell tables, and exit (no simulation)")
		obsOn       = flag.Bool("obs", false, "enable telemetry counters (implied by -metrics-out and -serve)")
		obsAssert   = flag.Bool("obs-assert", false, "enable runtime invariant self-checks in the simulators (panics on violation)")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event timeline (chrome://tracing, ui.perfetto.dev) to this file")
		metricsOut  = flag.String("metrics-out", "", "write a run manifest (build provenance, flags, per-experiment cost, counter snapshot) as JSON to this file")
		serveAddr   = flag.String("serve", "", "serve live metrics (expvar + /metrics) on this address, e.g. :8417")
		serveAPI    = flag.String("serve-api", "", "run the experiment API server on this address, e.g. :8418 (instead of a one-shot -experiment run)")
		apiInFlight = flag.Int("api-inflight", 2, "serve-api: maximum concurrently executing runs")
		apiWait     = flag.Duration("api-queue-wait", 2*time.Second, "serve-api: how long an inadmissible request may queue for a run slot before 429")
		apiTimeout  = flag.Duration("api-timeout", 0, "serve-api: per-run wall-time limit (0 = unbounded; a request's timeout_ms can only tighten it)")
		apiCache    = flag.Int("api-cache", 64, "serve-api: response-cache entries, LRU (0 disables); also bounds the study-pass memos")
		drainGrace  = flag.Duration("drain-grace", 15*time.Second, "serve-api: how long in-flight runs may finish after SIGINT/SIGTERM before their sweeps are cancelled")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("%-20s %s\n", id, title)
		}
		return nil
	}
	if *reportIn != "" {
		var inputs []flight.ReportInput
		for _, p := range strings.Split(*reportIn, ",") {
			if p = strings.TrimSpace(p); p == "" {
				continue
			}
			in, err := flight.ReadReportInput(p)
			if err != nil {
				return fmt.Errorf("-report: %w", err)
			}
			inputs = append(inputs, in)
		}
		if len(inputs) == 0 {
			return usageErr("-report: no input files")
		}
		fmt.Print(flight.Report(inputs))
		return nil
	}
	if *experiment == "" && *serveAPI == "" {
		return usageErr("-experiment required (or -list, -report, or -serve-api); e.g. capsim -experiment fig9")
	}

	sweep.SetDefaultWorkers(*parallel)
	trace.SetBudget(*traceBudget)
	experiments.SetStudyCacheBudget(*studyBudget)
	if *studyCache != "" {
		if err := experiments.SetStudyCacheDir(*studyCache); err != nil {
			return fmt.Errorf("-study-cache: %w", err)
		}
	}
	if (*shardSpec != "" && (*shardCoord > 0 || *shardClaim != "")) || (*shardCoord > 0 && *shardClaim != "") {
		return usageErr("-shard, -shard-coordinator and -shard-claim are mutually exclusive")
	}

	// Telemetry switches. Counters are free when off; -metrics-out and
	// -serve imply them (a manifest or live endpoint full of zeros would
	// only mislead). All obs notices go to stderr: stdout carries exactly
	// the rendered experiment output, byte-identical with telemetry on or
	// off.
	obs.SetAssert(*obsAssert)
	obsEnabled := *obsOn || *metricsOut != ""
	obs.SetEnabled(obsEnabled)
	if *serveAddr != "" {
		h, err := obs.Serve(*serveAddr)
		if err != nil {
			return fmt.Errorf("-serve: %w", err)
		}
		// Drain the endpoint before exit instead of dying mid-write: the
		// old code leaked the listener and server for the process lifetime.
		defer func() {
			sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer scancel()
			if serr := h.Shutdown(sctx); serr != nil {
				fmt.Fprintf(os.Stderr, "capsim: -serve shutdown: %v\n", serr)
			}
		}()
		obsEnabled = true
		fmt.Fprintf(os.Stderr, "capsim: live metrics on http://%s/metrics\n", h.Addr())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("-trace-out: %w", err)
		}
		if err := obs.StartTrace(f); err != nil {
			f.Close()
			return err
		}
		// StopTrace terminates the JSON array and closes f; report its
		// error so a truncated trace is visible instead of shipping
		// silently.
		defer func() {
			if terr := obs.StopTrace(); terr != nil {
				fmt.Fprintf(os.Stderr, "capsim: trace: %v\n", terr)
			}
		}()
	}

	// The flight recorder's process-wide collector: every adaptive-policy run
	// in this process (one-shot experiments and API-served runs alike) appends
	// its per-interval decision ledger to the file. Recording never feeds back
	// into the simulation — stdout stays byte-identical with or without it.
	if *ledgerOut != "" {
		lw, lerr := flight.CreateLedger(*ledgerOut)
		if lerr != nil {
			return fmt.Errorf("-ledger-out: %w", lerr)
		}
		col := flight.NewCollector(lw)
		flight.SetCollector(col)
		// Close flushes the gzip/bufio layers; a truncated or failed ledger
		// must fail the run, not ship silently.
		defer func() {
			flight.SetCollector(nil)
			if serr := col.Err(); serr != nil && err == nil {
				err = fmt.Errorf("-ledger-out: %w", serr)
			}
			if cerr := lw.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("-ledger-out: %w", cerr)
			}
		}()
		if *studyCache != "" {
			fmt.Fprintln(os.Stderr, "capsim: -ledger-out: warm -study-cache rows skip simulation and record nothing; record from a cold cache for a complete ledger")
		}
		fmt.Fprintf(os.Stderr, "capsim: writing flight ledger to %s\n", *ledgerOut)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.CacheRefs = *cacheRefs
	cfg.CacheWarmRefs = *cacheWarm
	cfg.QueueInstrs = *queueInstrs
	cfg.IntervalInstrs = *interval
	cfg.PenaltyCycles = *penalty
	cfg.Feature = tech.FeatureSize(*feature)
	cfg.CacheParams.Feature = cfg.Feature

	if *serveAPI != "" {
		return serveAPIMode(*serveAPI, cfg, serveOptions{
			inFlight:   *apiInFlight,
			queueWait:  *apiWait,
			runTimeout: *apiTimeout,
			cache:      *apiCache,
			drainGrace: *drainGrace,
			parallel:   *parallel,
		})
	}

	// -experiment accepts a comma-separated list ("fig12,fig13"): the ids
	// run in the given order in ONE process, so passes they share —
	// materialized traces, classification streams, interval families — are
	// computed once and reused across them.
	ids := strings.Split(*experiment, ",")
	if *experiment == "all" {
		ids = experiments.IDs()
	}

	// Shard modes. Workers (-shard, -shard-claim) publish owned study rows
	// to the shared study cache and render nothing; the coordinator waits for
	// its workers and then falls through to the normal render loop below —
	// which IS the merge: every row hits the warm cache and stdout is
	// byte-identical to a single-process run.
	if *shardClaim != "" {
		return shardClaimMode(*shardClaim, ids, cfg)
	}
	if *shardSpec != "" {
		return shardWorkerMode(*shardSpec, ids, cfg)
	}
	if *shardCoord > 0 {
		workerParallel := *parallel / *shardCoord
		if workerParallel < 1 {
			workerParallel = 1
		}
		commonArgs := []string{
			"-experiment", *experiment,
			"-seed", fmt.Sprint(*seed),
			"-cache-refs", fmt.Sprint(*cacheRefs),
			"-cache-warm", fmt.Sprint(*cacheWarm),
			"-queue-instrs", fmt.Sprint(*queueInstrs),
			"-interval", fmt.Sprint(*interval),
			"-switch-penalty", fmt.Sprint(*penalty),
			"-feature", fmt.Sprint(*feature),
			"-trace-budget", fmt.Sprint(*traceBudget),
			"-study-cache", *studyCache,
			"-study-cache-budget", fmt.Sprint(*studyBudget),
		}
		if err := shardCoordinate(*shardCoord, *shardBucket, workerParallel, commonArgs); err != nil {
			return err
		}
	}

	manifest := obs.NewManifest()
	manifest.Flags = flagMap()
	manifest.Parallel = sweep.DefaultWorkers()
	manifest.ObsEnabled = obsEnabled
	manifest.Seed = cfg.Seed
	manifest.CacheRefs = cfg.CacheRefs
	manifest.QueueInstrs = cfg.QueueInstrs

	var before, after runtime.MemStats
	for _, id := range ids {
		var snapBefore obs.Snapshot
		if *metricsOut != "" {
			runtime.ReadMemStats(&before)
			snapBefore = obs.TakeSnapshot()
		}
		start := time.Now()
		res, err := experiments.Run(id, cfg)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		fmt.Print(res.Render())
		fmt.Printf("(%s in %.1fs)\n\n", id, wall.Seconds())
		if *metricsOut != "" {
			runtime.ReadMemStats(&after)
			title, _ := experiments.Title(id)
			manifest.Experiments = append(manifest.Experiments, obs.ExperimentRecord{
				ID: id, Title: title, WallNS: wall.Nanoseconds(),
				Allocs:     after.Mallocs - before.Mallocs,
				AllocBytes: after.TotalAlloc - before.TotalAlloc,
				Counters:   obs.TakeSnapshot().DiffCounters(snapBefore),
			})
			manifest.TotalWallNS += wall.Nanoseconds()
		}
	}

	if *metricsOut != "" {
		manifest.Final = obs.TakeSnapshot()
		if err := manifest.WriteFile(*metricsOut); err != nil {
			return fmt.Errorf("-metrics-out: %w", err)
		}
		fmt.Fprintf(os.Stderr, "capsim: wrote run manifest %s (%d experiments)\n", *metricsOut, len(manifest.Experiments))
	}
	return nil
}

// serveOptions carries the -serve-api tuning flags into serveAPIMode.
type serveOptions struct {
	inFlight   int
	queueWait  time.Duration
	runTimeout time.Duration
	cache      int
	drainGrace time.Duration
	parallel   int
}

// serveAPIMode runs the experiment API server until SIGINT/SIGTERM, then
// drains: new runs get 503 immediately, in-flight runs get the drain grace
// period to finish, after which their sweeps are cancelled. The base
// configuration (budgets a request's absent fields inherit) is the same one
// the flag set builds for a one-shot run.
func serveAPIMode(addr string, cfg experiments.Config, so serveOptions) error {
	// A long-lived process sweeping arbitrary client configurations must
	// bound its memoized profiling passes; the one-shot CLI path never does.
	if so.cache > 0 {
		experiments.SetStudyCacheCap(so.cache)
	}
	// Telemetry is on for a service: /metrics over frozen zeros would only
	// mislead, and counters are cheap (see internal/obs).
	obs.SetEnabled(true)

	srv := server.New(server.Options{
		BaseConfig:   cfg,
		MaxInFlight:  so.inFlight,
		QueueWait:    so.queueWait,
		RunTimeout:   so.runTimeout,
		CacheEntries: so.cache,
		MaxParallel:  so.parallel,
	})
	bound, err := srv.Start(addr)
	if err != nil {
		return fmt.Errorf("-serve-api: %w", err)
	}
	fmt.Fprintf(os.Stderr, "capsim: experiment API on http://%s (GET /v1/experiments, POST /v1/run, /healthz, /metrics)\n", bound)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // restore default signal handling: a second ^C kills immediately

	fmt.Fprintf(os.Stderr, "capsim: draining (in-flight runs get %s)\n", so.drainGrace)
	sctx, cancel := context.WithTimeout(context.Background(), so.drainGrace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("-serve-api: drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "capsim: drained")
	return nil
}

// flagMap captures every flag's effective value (set or default) for the
// manifest, so a run is reproducible from its manifest alone.
func flagMap() map[string]string {
	m := make(map[string]string)
	flag.VisitAll(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
	return m
}

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
//	capsim -experiment fig10 -obs-assert               # runtime invariant checks
//	capsim -experiment ablation-interval -ledger-out run.ledger.gz  # flight recorder
//	capsim -experiment zoo -ledger-out zoo.ledger.gz   # policy league race
//	capsim -report run.ledger.gz,run.json              # offline regret analysis
//
// Output is byte-identical at every -parallel setting: simulation jobs derive
// their random streams from (seed, benchmark, purpose) and results are
// collected by grid index, so the worker count changes only the wall time.
// -study-cache likewise changes only wall time and disk use. The telemetry
// flags (-trace-out, -metrics-out, -obs-assert) never change stdout
// either: observability receives statistics, it does not feed them back
// (all telemetry notices go to stderr; `make ci`'s bench-obs-smoke enforces
// the byte identity).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
)

// main is a thin shell around run: all error paths return through run's
// single exit point so every deferred cleanup — pprof.StopCPUProfile, the
// profile file's Close, obs.StopTrace flushing the Chrome trace array —
// executes before the process decides its exit status. (The old main called
// os.Exit mid-function, which skipped the deferred StopCPUProfile and
// silently truncated profiles on any later error.)
func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "capsim: %v\n", err)
		if ec, ok := err.(exitCoder); ok {
			os.Exit(ec.code)
		}
		os.Exit(1)
	}
}

// exitCoder carries a specific exit status through run's error return:
// usage errors (everything parseArgs rejects) exit 2, the flag package
// convention.
type exitCoder struct {
	error
	code int
}

// runConfig is one parsed command line: the selected mode, the experiment
// configuration, and the switches run acts on.
type runConfig struct {
	fs *flag.FlagSet // the parsed flags; the run manifest records them all

	list     bool
	report   []string // -report inputs; non-empty selects report mode
	serveAPI string
	serve    serveOptions
	ids      []string // resolved -experiment ids, in run order

	parallel   int
	studyCache string
	cpuprofile string
	ledgerOut  string
	obsAssert  bool
	traceOut   string
	metricsOut string

	cfg experiments.Config
}

// parseArgs parses and validates a command line without side effects: it
// writes nothing and touches no process state, so every usage error surfaces
// before any simulation runs or any output file is created. On flag.ErrHelp
// the returned config still carries the flag set, for printing the usage.
func parseArgs(args []string) (runConfig, error) {
	fs := flag.NewFlagSet("capsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	rc := runConfig{fs: fs}
	var (
		experiment  = fs.String("experiment", "", "experiment id, comma-separated list of ids, or 'all'")
		seed        = fs.Uint64("seed", 1998, "master workload seed")
		cacheRefs   = fs.Int64("cache-refs", 400_000, "measured references per cache configuration")
		cacheWarm   = fs.Int64("cache-warm", 100_000, "warm-up references per cache configuration")
		queueInstrs = fs.Int64("queue-instrs", 150_000, "measured instructions per queue configuration")
		interval    = fs.Int64("interval", 2_000, "interval length in instructions (Section 6 studies)")
		penalty     = fs.Int("switch-penalty", -1, "clock-switch penalty in cycles (-1 = default)")
		feature     = fs.Float64("feature", 0.18, "feature size in microns (0.25, 0.18, 0.12)")
		reportIn    = fs.String("report", "", "offline ledger analysis: read comma-separated ledger/manifest files, print regret, switch-rate and dwell tables, and exit (no simulation)")
	)
	fs.BoolVar(&rc.list, "list", false, "list available experiments and exit")
	fs.IntVar(&rc.parallel, "parallel", runtime.GOMAXPROCS(0), "sweep worker count (1 = serial; output is identical at any setting)")
	fs.StringVar(&rc.studyCache, "study-cache", "", "persistent content-addressed study cache directory; repeated runs, CI and processes running disjoint -experiment subsets reuse finished profiling rows instead of recomputing (output is identical with or without)")
	fs.StringVar(&rc.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&rc.ledgerOut, "ledger-out", "", "write the flight-recorder decision ledger (per-interval NDJSON, gzip when the path ends in .gz) of every adaptive-policy run to this file")
	fs.BoolVar(&rc.obsAssert, "obs-assert", false, "enable runtime invariant self-checks in the simulators (panics on violation)")
	fs.StringVar(&rc.traceOut, "trace-out", "", "write a Chrome trace-event timeline (chrome://tracing, ui.perfetto.dev) to this file")
	fs.StringVar(&rc.metricsOut, "metrics-out", "", "write a run manifest (build provenance, flags, per-experiment cost, counter snapshot) as JSON to this file")
	fs.StringVar(&rc.serveAPI, "serve-api", "", "run the experiment API server on this address, e.g. :8418 (instead of a one-shot -experiment run)")
	fs.IntVar(&rc.serve.inFlight, "api-inflight", 2, "serve-api: maximum concurrently executing runs")
	fs.DurationVar(&rc.serve.queueWait, "api-queue-wait", 2*time.Second, "serve-api: how long an inadmissible request may queue for a run slot before 429")
	fs.DurationVar(&rc.serve.runTimeout, "api-timeout", 0, "serve-api: per-run wall-time limit (0 = unbounded; a request's timeout_ms can only tighten it)")
	fs.IntVar(&rc.serve.cache, "api-cache", 64, "serve-api: response-cache entries, LRU (0 disables); also bounds each in-memory memo a run fills (study rows, trace stores, race families) to this many entries")
	fs.DurationVar(&rc.serve.drainGrace, "drain-grace", 15*time.Second, "serve-api: how long in-flight runs may finish after SIGINT/SIGTERM before their sweeps are cancelled")
	if err := fs.Parse(args); err != nil {
		return rc, err
	}
	if fs.NArg() > 0 {
		return rc, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if rc.parallel < 0 {
		return rc, fmt.Errorf("-parallel must be >= 0, got %d", rc.parallel)
	}
	rc.serve.parallel = rc.parallel

	rc.cfg = experiments.DefaultConfig()
	rc.cfg.Seed = *seed
	rc.cfg.CacheRefs = *cacheRefs
	rc.cfg.CacheWarmRefs = *cacheWarm
	rc.cfg.QueueInstrs = *queueInstrs
	rc.cfg.IntervalInstrs = *interval
	rc.cfg.PenaltyCycles = *penalty
	rc.cfg.Feature = tech.FeatureSize(*feature)
	rc.cfg.CacheParams.Feature = rc.cfg.Feature
	if err := rc.cfg.Validate(); err != nil {
		return rc, err
	}

	if rc.list {
		return rc, nil
	}
	if *reportIn != "" {
		for _, p := range strings.Split(*reportIn, ",") {
			if p = strings.TrimSpace(p); p != "" {
				rc.report = append(rc.report, p)
			}
		}
		if len(rc.report) == 0 {
			return rc, errors.New("-report: no input files")
		}
		return rc, nil
	}
	if *experiment == "" && rc.serveAPI == "" {
		return rc, errors.New("-experiment required (or -list, -report, or -serve-api); e.g. capsim -experiment fig9")
	}
	if *experiment != "" {
		ids, err := resolveIDs(*experiment)
		if err != nil {
			return rc, err
		}
		rc.ids = ids
	}
	return rc, nil
}

// resolveIDs expands an -experiment value: "all", or a comma-separated list
// of registered ids run in the given order in ONE process, so passes they
// share — materialized traces, race families — are computed once and
// reused across them. Every id is checked here, so an unknown one fails the
// run before the first id simulates.
func resolveIDs(spec string) ([]string, error) {
	if spec == "all" {
		return experiments.IDs(), nil
	}
	ids := strings.Split(spec, ",")
	for _, id := range ids {
		if _, err := experiments.Title(id); err != nil {
			return nil, fmt.Errorf("-experiment: unknown experiment %q (have %s)", id, strings.Join(experiments.IDs(), ", "))
		}
	}
	return ids, nil
}

func run(args []string) (err error) {
	rc, err := parseArgs(args)
	if errors.Is(err, flag.ErrHelp) {
		rc.fs.SetOutput(os.Stderr)
		rc.fs.Usage()
		return nil
	}
	if err != nil {
		return exitCoder{err, 2}
	}

	if rc.list {
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("%-20s %s\n", id, title)
		}
		return nil
	}
	if len(rc.report) > 0 {
		var inputs []flight.ReportInput
		for _, p := range rc.report {
			in, err := flight.ReadReportInput(p)
			if err != nil {
				return fmt.Errorf("-report: %w", err)
			}
			inputs = append(inputs, in)
		}
		fmt.Print(flight.Report(inputs))
		return nil
	}

	sweep.SetDefaultWorkers(rc.parallel)
	if rc.studyCache != "" {
		if err := experiments.SetStudyCacheDir(rc.studyCache); err != nil {
			return fmt.Errorf("-study-cache: %w", err)
		}
	}

	// Telemetry switches. Counters are free when off; the manifest is their
	// only reader in a one-shot run, so -metrics-out turns them on. All obs
	// notices go to stderr: stdout carries exactly the rendered experiment
	// output, byte-identical with telemetry on or off.
	obs.SetAssert(rc.obsAssert)
	obsEnabled := rc.metricsOut != ""
	obs.SetEnabled(obsEnabled)
	if rc.traceOut != "" {
		f, err := os.Create(rc.traceOut)
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
	if rc.ledgerOut != "" {
		lw, lerr := flight.CreateLedger(rc.ledgerOut)
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
		if rc.studyCache != "" {
			fmt.Fprintln(os.Stderr, "capsim: -ledger-out: warm -study-cache rows skip simulation and record nothing; record from a cold cache for a complete ledger")
		}
		fmt.Fprintf(os.Stderr, "capsim: writing flight ledger to %s\n", rc.ledgerOut)
	}

	if rc.cpuprofile != "" {
		f, err := os.Create(rc.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cfg := rc.cfg
	if rc.serveAPI != "" {
		return serveAPIMode(rc.serveAPI, cfg, rc.serve)
	}

	manifest := obs.NewManifest()
	manifest.Flags = flagMap(rc.fs)
	manifest.Parallel = sweep.DefaultWorkers()
	manifest.ObsEnabled = obsEnabled
	manifest.Seed = cfg.Seed
	manifest.CacheRefs = cfg.CacheRefs
	manifest.QueueInstrs = cfg.QueueInstrs

	var before, after runtime.MemStats
	for _, id := range rc.ids {
		var snapBefore obs.Snapshot
		if rc.metricsOut != "" {
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
		if rc.metricsOut != "" {
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

	if rc.metricsOut != "" {
		manifest.Final = obs.TakeSnapshot()
		if err := manifest.WriteFile(rc.metricsOut); err != nil {
			return fmt.Errorf("-metrics-out: %w", err)
		}
		fmt.Fprintf(os.Stderr, "capsim: wrote run manifest %s (%d experiments)\n", rc.metricsOut, len(manifest.Experiments))
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
// parseArgs builds for a one-shot run.
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
func flagMap(fs *flag.FlagSet) map[string]string {
	m := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
	return m
}

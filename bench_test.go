package capsim

import (
	"testing"

	"capsim/internal/cache"
	"capsim/internal/core"
	"capsim/internal/experiments"
	"capsim/internal/tech"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// benchConfig returns reduced budgets so the full `go test -bench=.` sweep
// regenerates every figure in minutes on one core. Raise the budgets (or use
// cmd/capsim with -cache-refs / -queue-instrs) for full-fidelity runs.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.CacheWarmRefs = 20_000
	cfg.CacheRefs = 100_000
	cfg.QueueInstrs = 30_000
	return cfg
}

// benchExperiment runs one of the paper's figures/tables per benchmark
// iteration and fails on an empty result (keeping the work observable).
// Every iteration starts cold: experiments.ResetCaches, with the timer
// stopped, drops the memoized study rows, trace stores and race families,
// so each timed run recomputes the experiment instead of reading the
// previous iteration's rows back from the memo.
func benchExperiment(b *testing.B, id string) {
	cfg := benchConfig()
	defer experiments.ResetCaches()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		experiments.ResetCaches()
		b.StartTimer()
		res, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Figures)+len(res.Tables) == 0 {
			b.Fatal("empty result")
		}
	}
}

// Figure 1(a): cache address-bus wire delay vs number of 2KB subarrays.
func BenchmarkFig1a(b *testing.B) { benchExperiment(b, "fig1a") }

// Figure 1(b): cache address-bus wire delay vs number of 4KB subarrays.
func BenchmarkFig1b(b *testing.B) { benchExperiment(b, "fig1b") }

// Figure 2: integer-queue wire delay vs entry count.
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// Figure 7: per-application TPI vs L1 Dcache size (fixed boundaries).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// Figure 8: TPImiss, best conventional vs process-level adaptive hierarchy.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// Figure 9: TPI, best conventional vs process-level adaptive hierarchy.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// Figure 10: per-application TPI vs instruction-queue size.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// Figure 11: TPI, best conventional vs process-level adaptive queue.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// Figure 12: turb3d per-interval snapshots, 64- vs 128-entry queue.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// Figure 13: vortex per-interval snapshots, 16- vs 64-entry queue.
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// Ablation: Section 6 interval predictor vs process-level vs oracle.
func BenchmarkAblationInterval(b *testing.B) { benchExperiment(b, "ablation-interval") }

// Ablation: clock-switch penalty sweep.
func BenchmarkAblationSwitchPenalty(b *testing.B) { benchExperiment(b, "ablation-switch") }

// Ablation: increment granularity (paper Section 5.2.1's design choice).
func BenchmarkAblationIncrement(b *testing.B) { benchExperiment(b, "ablation-increment") }

// Ablation: Section 4.1 low-power mode.
func BenchmarkAblationPower(b *testing.B) { benchExperiment(b, "ablation-power") }

// Extension: adaptive TLB with the Section 4.2 backup strategy.
func BenchmarkAblationTLB(b *testing.B) { benchExperiment(b, "ablation-tlb") }

// Extension: adaptive branch-predictor table sizing.
func BenchmarkAblationBpred(b *testing.B) { benchExperiment(b, "ablation-bpred") }

// Extension: the full Figure 5 processor — joint cache+queue adaptation.
func BenchmarkAblationCombined(b *testing.B) { benchExperiment(b, "ablation-combined") }

// Extension: the policy-zoo league race (contenders + baselines + oracle).
func BenchmarkZoo(b *testing.B) { benchExperiment(b, "zoo") }

// --- Cold-path profiling passes -----------------------------------------
//
// Each pass pays its stream generation: references are generated where they
// are read, and trace.Reset() inside the queue loop drops the instruction
// store so every iteration re-materializes it.

// BenchmarkCacheProfile profiles all 8 paper boundaries for one application
// in one MultiHierarchy pass.
func BenchmarkCacheProfile(b *testing.B) {
	bm := workload.MustByName("gcc")
	p := cache.PaperParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tpi, _, err := core.ProfileCacheTPI(bm, 1998, p, core.PaperMaxBoundary, 20_000, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		if len(tpi) != core.PaperMaxBoundary+1 {
			b.Fatal("short table")
		}
	}
}

// BenchmarkQueueProfile profiles all 8 queue sizes for one application in
// one MultiCore pass over the shared instruction stream.
func BenchmarkQueueProfile(b *testing.B) {
	bm := workload.MustByName("gcc")
	defer trace.Reset()
	sizes := core.PaperQueueSizes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Reset()
		tpi, err := core.ProfileQueueTPI(bm, 1998, sizes, 30_000, tech.Micron018)
		if err != nil {
			b.Fatal(err)
		}
		if len(tpi) != len(sizes) {
			b.Fatal("short table")
		}
	}
}

// BenchmarkQueueProfileWarm is BenchmarkQueueProfile with the op store
// primed: one untimed pass materializes the shared instruction trace, so
// every timed pass measures the issue engine alone. It reports ns per
// simulated instruction per core (8 window sizes × 30 000 issued
// instructions per pass).
func BenchmarkQueueProfileWarm(b *testing.B) {
	bm := workload.MustByName("gcc")
	defer trace.Reset()
	trace.Reset()
	sizes := core.PaperQueueSizes()
	const instrs = 30_000
	if _, err := core.ProfileQueueTPI(bm, 1998, sizes, instrs, tech.Micron018); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tpi, err := core.ProfileQueueTPI(bm, 1998, sizes, instrs, tech.Micron018)
		if err != nil {
			b.Fatal(err)
		}
		if len(tpi) != len(sizes) {
			b.Fatal("short table")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(sizes))*instrs), "ns/core-instr")
}

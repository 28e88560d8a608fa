package capsim_test

import (
	"context"
	"fmt"
	"log"

	"capsim"
)

// Build a Complexity-Adaptive Processor with an adaptive instruction queue,
// run two very different applications on it, and watch the process-level
// configuration manager pick a different IPC/clock-rate tradeoff for each —
// the core idea of the CAP paper.
func Example_quickstart() {
	sizes := capsim.PaperQueueSizes() // 16..128 entries

	// gcc has window-hungry parallel bursts; appcg is a dependence-bound
	// sparse solver that only wants the fastest clock.
	for _, name := range []string{"gcc", "appcg"} {
		b, err := capsim.BenchmarkByName(name)
		if err != nil {
			log.Fatal(err)
		}

		// Profile every configuration (the paper assumes a CAP compiler
		// or runtime performs this analysis), then run under the
		// process-level policy with the winner.
		fmt.Printf("%s:\n", name)
		tpi, err := capsim.ProfileQueue(b, 1, sizes, 100_000)
		if err != nil {
			log.Fatal(err)
		}
		best := 0
		for i, w := range sizes {
			cycle, err := capsim.QueueCycleNS(w)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  IQ=%3d entries @ %.3f ns/cycle -> TPI %.4f ns\n", w, cycle, tpi[i])
			if tpi[i] < tpi[best] {
				best = i
			}
		}

		res, err := capsim.RunQueue(context.Background(), b, 1, sizes, capsim.ProcessLevelPolicy{Best: best}, 50, 2000, -1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  process-level adaptive picks IQ=%d: TPI %.4f ns (%d clock switch)\n\n",
			sizes[best], res.TPI, res.Switches)
	}
	// Output:
	// gcc:
	//   IQ= 16 entries @ 0.463 ns/cycle -> TPI 0.2516 ns
	//   IQ= 32 entries @ 0.584 ns/cycle -> TPI 0.2791 ns
	//   IQ= 48 entries @ 0.614 ns/cycle -> TPI 0.2539 ns
	//   IQ= 64 entries @ 0.645 ns/cycle -> TPI 0.2356 ns
	//   IQ= 80 entries @ 0.765 ns/cycle -> TPI 0.2573 ns
	//   IQ= 96 entries @ 0.795 ns/cycle -> TPI 0.2500 ns
	//   IQ=112 entries @ 0.826 ns/cycle -> TPI 0.2459 ns
	//   IQ=128 entries @ 0.856 ns/cycle -> TPI 0.2405 ns
	//   process-level adaptive picks IQ=64: TPI 0.2356 ns (1 clock switch)
	//
	// appcg:
	//   IQ= 16 entries @ 0.463 ns/cycle -> TPI 0.5837 ns
	//   IQ= 32 entries @ 0.584 ns/cycle -> TPI 0.7200 ns
	//   IQ= 48 entries @ 0.614 ns/cycle -> TPI 0.7448 ns
	//   IQ= 64 entries @ 0.645 ns/cycle -> TPI 0.7692 ns
	//   IQ= 80 entries @ 0.765 ns/cycle -> TPI 0.8975 ns
	//   IQ= 96 entries @ 0.795 ns/cycle -> TPI 0.9176 ns
	//   IQ=112 entries @ 0.826 ns/cycle -> TPI 0.9377 ns
	//   IQ=128 entries @ 0.856 ns/cycle -> TPI 0.9572 ns
	//   process-level adaptive picks IQ=16: TPI 0.5837 ns (0 clock switch)
}

// Walk through the paper's instruction-queue experiment (Section 5.3) on
// three contrasting applications: a window-hungry integer code (gcc), a
// dependence-chain-bound solver (appcg), and one that keeps profiting all
// the way to 128 entries (compress). The wakeup/select delay of each size
// sets its clock; IPC is that cycle time divided by TPI.
func Example_adaptiveQueue() {
	sizes := capsim.PaperQueueSizes()

	fmt.Println("Adaptive instruction queue: wakeup+select sets the clock")
	fmt.Println()
	fmt.Println("  entries  cycle(ns)")
	cycles := make([]float64, len(sizes))
	for i, w := range sizes {
		cycle, err := capsim.QueueCycleNS(w)
		if err != nil {
			log.Fatal(err)
		}
		cycles[i] = cycle
		fmt.Printf("  %7d  %.3f\n", w, cycle)
	}
	fmt.Println()

	for _, name := range []string{"gcc", "appcg", "compress"} {
		b, err := capsim.BenchmarkByName(name)
		if err != nil {
			log.Fatal(err)
		}
		tpi, err := capsim.ProfileQueue(b, 1, sizes, 120_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: TPI by queue size\n", name)
		best := 0
		for i, w := range sizes {
			if tpi[i] < tpi[best] {
				best = i
			}
			fmt.Printf("  IQ=%3d: IPC %.2f  TPI %.4f ns\n", w, cycles[i]/tpi[i], tpi[i])
		}
		fmt.Printf("  -> best configuration: %d entries (%.4f ns)\n\n", sizes[best], tpi[best])
	}

	fmt.Println("A conventional processor freezes one of these rows at design time;")
	fmt.Println("the CAP picks per application and keeps the frozen rows' clock rates.")
	// Output:
	// Adaptive instruction queue: wakeup+select sets the clock
	//
	//   entries  cycle(ns)
	//        16  0.463
	//        32  0.584
	//        48  0.614
	//        64  0.645
	//        80  0.765
	//        96  0.795
	//       112  0.826
	//       128  0.856
	//
	// gcc: TPI by queue size
	//   IQ= 16: IPC 1.84  TPI 0.2515 ns
	//   IQ= 32: IPC 2.09  TPI 0.2792 ns
	//   IQ= 48: IPC 2.41  TPI 0.2544 ns
	//   IQ= 64: IPC 2.73  TPI 0.2362 ns
	//   IQ= 80: IPC 2.96  TPI 0.2583 ns
	//   IQ= 96: IPC 3.17  TPI 0.2510 ns
	//   IQ=112: IPC 3.35  TPI 0.2468 ns
	//   IQ=128: IPC 3.55  TPI 0.2413 ns
	//   -> best configuration: 64 entries (0.2362 ns)
	//
	// appcg: TPI by queue size
	//   IQ= 16: IPC 0.80  TPI 0.5829 ns
	//   IQ= 32: IPC 0.81  TPI 0.7188 ns
	//   IQ= 48: IPC 0.83  TPI 0.7435 ns
	//   IQ= 64: IPC 0.84  TPI 0.7678 ns
	//   IQ= 80: IPC 0.85  TPI 0.8959 ns
	//   IQ= 96: IPC 0.87  TPI 0.9162 ns
	//   IQ=112: IPC 0.88  TPI 0.9364 ns
	//   IQ=128: IPC 0.90  TPI 0.9558 ns
	//   -> best configuration: 16 entries (0.5829 ns)
	//
	// compress: TPI by queue size
	//   IQ= 16: IPC 1.78  TPI 0.2596 ns
	//   IQ= 32: IPC 2.15  TPI 0.2721 ns
	//   IQ= 48: IPC 2.54  TPI 0.2415 ns
	//   IQ= 64: IPC 2.83  TPI 0.2274 ns
	//   IQ= 80: IPC 3.08  TPI 0.2487 ns
	//   IQ= 96: IPC 3.32  TPI 0.2396 ns
	//   IQ=112: IPC 3.58  TPI 0.2304 ns
	//   IQ=128: IPC 3.83  TPI 0.2238 ns
	//   -> best configuration: 128 entries (0.2238 ns)
	//
	// A conventional processor freezes one of these rows at design time;
	// the CAP picks per application and keeps the frozen rows' clock rates.
}

// Reproduce the paper's motivating cache scenario (Section 5.2): a
// scientific application whose working set wants a large L1 (stereo, from
// the CMU suite) shares a processor design with a general-purpose
// application that wants the fastest clock (gcc). A conventional design
// must compromise; the complexity-adaptive hierarchy moves its L1/L2
// boundary per application and wins on both.
func Example_adaptiveCache() {
	p := capsim.PaperCacheParams() // 128 KB: 16 increments of 8 KB 2-way

	fmt.Println("Complexity-adaptive 128KB Dcache hierarchy (movable L1/L2 boundary)")
	fmt.Println()

	type appResult struct {
		name string
		tpi  []float64 // indexed by boundary k = 1..8
	}
	var results []appResult

	for _, name := range []string{"gcc", "stereo", "appcg"} {
		b, err := capsim.BenchmarkByName(name)
		if err != nil {
			log.Fatal(err)
		}
		tpi, tpiMiss, err := capsim.ProfileCache(b, 1, p, 0, 300_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (refs/instr %.2f):\n", name, b.Mem.RefsPerInstr)
		for k := 1; k <= 8; k++ {
			cycle, err := capsim.CacheCycleNS(p, k)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  L1=%2dKB %2d-way: cycle %.3f ns, TPI %.4f (miss %.4f)\n",
				p.L1Bytes(k)/1024, p.L1Assoc(k), cycle, tpi[k], tpiMiss[k])
		}
		results = append(results, appResult{name, tpi})
		fmt.Println()
	}

	// The conventional design freezes one boundary for everyone; the CAP
	// reconfigures on context switches.
	conv := 2 // 16KB 4-way, the paper's best conventional configuration
	fmt.Printf("conventional (fixed L1=%dKB) vs process-level adaptive:\n", p.L1Bytes(conv)/1024)
	for _, r := range results {
		best := conv
		for k := 1; k <= 8; k++ {
			if r.tpi[k] < r.tpi[best] {
				best = k
			}
		}
		fmt.Printf("  %-8s conventional %.4f ns -> adaptive %.4f ns at L1=%dKB (%.1f%% faster)\n",
			r.name, r.tpi[conv], r.tpi[best], p.L1Bytes(best)/1024,
			100*(r.tpi[conv]-r.tpi[best])/r.tpi[conv])
	}
	// Output:
	// Complexity-adaptive 128KB Dcache hierarchy (movable L1/L2 boundary)
	//
	// gcc (refs/instr 0.30):
	//   L1= 8KB  2-way: cycle 0.466 ns, TPI 0.3598 (miss 0.1854)
	//   L1=16KB  4-way: cycle 0.484 ns, TPI 0.3339 (miss 0.1525)
	//   L1=24KB  6-way: cycle 0.515 ns, TPI 0.3452 (miss 0.1522)
	//   L1=32KB  8-way: cycle 0.559 ns, TPI 0.3598 (miss 0.1504)
	//   L1=40KB 10-way: cycle 0.615 ns, TPI 0.3802 (miss 0.1497)
	//   L1=48KB 12-way: cycle 0.651 ns, TPI 0.3937 (miss 0.1497)
	//   L1=56KB 14-way: cycle 0.683 ns, TPI 0.4037 (miss 0.1480)
	//   L1=64KB 16-way: cycle 0.715 ns, TPI 0.4164 (miss 0.1488)
	//
	// stereo (refs/instr 0.44):
	//   L1= 8KB  2-way: cycle 0.466 ns, TPI 1.0038 (miss 0.8294)
	//   L1=16KB  4-way: cycle 0.484 ns, TPI 0.9769 (miss 0.7955)
	//   L1=24KB  6-way: cycle 0.515 ns, TPI 0.9560 (miss 0.7630)
	//   L1=32KB  8-way: cycle 0.559 ns, TPI 0.9579 (miss 0.7484)
	//   L1=40KB 10-way: cycle 0.615 ns, TPI 0.6780 (miss 0.4476)
	//   L1=48KB 12-way: cycle 0.651 ns, TPI 0.4834 (miss 0.2395)
	//   L1=56KB 14-way: cycle 0.683 ns, TPI 0.4836 (miss 0.2279)
	//   L1=64KB 16-way: cycle 0.715 ns, TPI 0.4964 (miss 0.2288)
	//
	// appcg (refs/instr 0.30):
	//   L1= 8KB  2-way: cycle 0.466 ns, TPI 0.7304 (miss 0.5560)
	//   L1=16KB  4-way: cycle 0.484 ns, TPI 0.6657 (miss 0.4843)
	//   L1=24KB  6-way: cycle 0.515 ns, TPI 0.6086 (miss 0.4155)
	//   L1=32KB  8-way: cycle 0.559 ns, TPI 0.5762 (miss 0.3667)
	//   L1=40KB 10-way: cycle 0.615 ns, TPI 0.5636 (miss 0.3332)
	//   L1=48KB 12-way: cycle 0.651 ns, TPI 0.5287 (miss 0.2848)
	//   L1=56KB 14-way: cycle 0.683 ns, TPI 0.4559 (miss 0.2002)
	//   L1=64KB 16-way: cycle 0.715 ns, TPI 0.4001 (miss 0.1325)
	//
	// conventional (fixed L1=16KB) vs process-level adaptive:
	//   gcc      conventional 0.3339 ns -> adaptive 0.3339 ns at L1=16KB (0.0% faster)
	//   stereo   conventional 0.9769 ns -> adaptive 0.4834 ns at L1=48KB (50.5% faster)
	//   appcg    conventional 0.6657 ns -> adaptive 0.4001 ns at L1=64KB (39.9% faster)
}

// The paper's Section 6 extension: instead of fixing one configuration per
// application, a hardware predictor reads the performance-monitoring
// hardware every interval, predicts the best queue size for the next
// interval, and switches when confident — paying queue-drain and
// clock-switch penalties when it does.
//
// vortex is the interesting subject: its best configuration alternates
// between 16 and 64 entries on a fairly regular period in some stretches
// and irregularly in others, which is exactly what the confidence gate is
// for. EXPERIMENTS.md cites this output under ablation-interval.
func Example_intervalAdaptivity() {
	b, err := capsim.BenchmarkByName("vortex")
	if err != nil {
		log.Fatal(err)
	}
	sizes := []int{16, 64} // the two configurations Figure 13 studies
	const (
		intervals      = 1200
		intervalInstrs = 2000
	)

	run := func(p capsim.Policy) capsim.RunResult {
		res, err := capsim.RunQueue(context.Background(), b, 7, sizes, p, intervals, intervalInstrs, -1)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Printf("vortex, %d intervals of %d instructions:\n\n", intervals, intervalInstrs)
	for _, fixed := range []int{0, 1} {
		res := run(capsim.FixedPolicy{Config: fixed})
		fmt.Printf("  fixed IQ=%-3d           TPI %.4f ns\n", sizes[fixed], res.TPI)
	}

	res := run(&capsim.IntervalPolicy{Configs: []int{0, 1}})
	fmt.Printf("  interval-adaptive      TPI %.4f ns (%d reconfigurations)\n\n", res.TPI, res.Switches)

	// The confidence gate is what keeps the irregular stretches from
	// thrashing: compare against a trigger-happy variant.
	res = run(&capsim.IntervalPolicy{Configs: []int{0, 1}, ConfidenceMax: 1, MinGain: 0.001, ExplorePeriod: 4})
	fmt.Printf("  without confidence     TPI %.4f ns (%d reconfigurations)\n", res.TPI, res.Switches)
	fmt.Println()
	fmt.Println("The paper: 'a complexity-adaptive hardware predictor should assign a")
	fmt.Println("confidence level to each prediction ... to avoid needless")
	fmt.Println("reconfiguration overhead.'")
	// Output:
	// vortex, 1200 intervals of 2000 instructions:
	//
	//   fixed IQ=16            TPI 0.1746 ns
	//   fixed IQ=64            TPI 0.1936 ns
	//   interval-adaptive      TPI 0.1762 ns (300 reconfigurations)
	//
	//   without confidence     TPI 0.1814 ns (560 reconfigurations)
	//
	// The paper: 'a complexity-adaptive hardware predictor should assign a
	// confidence level to each prediction ... to avoid needless
	// reconfiguration overhead.'
}

// The CAP's power-management side (paper Section 4.1): the controllable
// clock and structure sizes provide several performance/power design points
// in one chip. The lowest-power mode sets every adaptive structure to its
// minimum size and selects the slowest clock — the mode the paper suggests
// for running from an uninterruptible power supply — and the same silicon
// can ship anywhere from a high-end server to a low-power laptop
// configuration.
func Example_powerModes() {
	p := capsim.PaperCacheParams()
	b, err := capsim.BenchmarkByName("gcc")
	if err != nil {
		log.Fatal(err)
	}

	// Profile the boundaries once to find the performance mode.
	tpi, _, err := capsim.ProfileCache(b, 1, p, 0, 200_000)
	if err != nil {
		log.Fatal(err)
	}
	const maxK = 8
	cycleNS := make([]float64, maxK+1)
	best := 1
	for k := 1; k <= maxK; k++ {
		if cycleNS[k], err = capsim.CacheCycleNS(p, k); err != nil {
			log.Fatal(err)
		}
		if tpi[k] < tpi[best] {
			best = k
		}
	}
	// CPI is set by the structure configuration; the clock may be
	// deliberately slower than the structure requires.
	cpi := func(k int) float64 { return tpi[k] / cycleNS[k] }

	fmt.Println("gcc on the adaptive 128KB Dcache hierarchy:")
	fmt.Println()
	modes := []struct {
		name    string
		k       int
		cycleNS float64
	}{
		{"server (performance)", best, cycleNS[best]},
		{"laptop (balanced)", 1, cycleNS[1]},
		{"UPS   (lowest power)", 1, cycleNS[maxK]},
	}
	for _, mode := range modes {
		activeFrac := float64(mode.k) / 8
		// Dynamic power proxy: switched capacitance (active fraction)
		// times frequency. Energy per instruction: power x TPI.
		power := activeFrac / mode.cycleNS
		energy := activeFrac * cpi(mode.k)
		fmt.Printf("  %-22s L1=%dKB @ %.3f ns: TPI %.4f ns, rel. power %.2f, rel. energy/instr %.2f\n",
			mode.name, p.L1Bytes(mode.k)/1024, mode.cycleNS, cpi(mode.k)*mode.cycleNS,
			power/(1.0/cycleNS[best]), energy/(float64(best)/8*cpi(best)))
	}
	fmt.Println()
	fmt.Println("One implementation, several product configurations (paper Section 4.1).")
	// Output:
	// gcc on the adaptive 128KB Dcache hierarchy:
	//
	//   server (performance)   L1=16KB @ 0.484 ns: TPI 0.3486 ns, rel. power 0.25, rel. energy/instr 1.00
	//   laptop (balanced)      L1=8KB @ 0.466 ns: TPI 0.3745 ns, rel. power 0.13, rel. energy/instr 0.56
	//   UPS   (lowest power)   L1=8KB @ 0.715 ns: TPI 0.5747 ns, rel. power 0.08, rel. energy/instr 0.56
	//
	// One implementation, several product configurations (paper Section 4.1).
}

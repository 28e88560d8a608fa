package core

import (
	"fmt"
	"math"

	"capsim/internal/cache"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// PaperMaxBoundary limits the explored L1 sizes to 8-64 KB (8 increments of
// 8 KB), the range the paper investigates.
const PaperMaxBoundary = 8

// baseCPI matches the paper's 4-way issue pipeline at 2.67 IPC in the
// absence of L1 Dcache misses.
const baseCPI = 1.0 / 2.67

// ProfileCacheTPI profiles every boundary for one application — the
// process-level profiling pass. Results are dense slices of length
// maxBoundary+1 indexed by boundary k (slot 0 is +Inf so SelectBestIndex can
// never choose it).
//
// The whole boundary family is evaluated in ONE pass over the reference
// stream, generated and decoded in place: every boundary position advances
// in lockstep through cache.MultiHierarchy, so each reference is generated
// and decoded exactly once instead of once per boundary. The same closed-form
// timing model as CacheMachine.RunInterval then converts per-boundary miss
// counts into (TPI, TPImiss); the float expressions replicate RunInterval
// term for term, in the same order, so results are bit-identical to one
// independent CacheMachine per boundary (TestProfileCacheTPIOnepass).
func ProfileCacheTPI(b workload.Benchmark, seed uint64, p cache.Params, maxBoundary int, warm, refs int64) (tpi, tpiMiss []float64, err error) {
	if b.Mem == nil {
		return nil, nil, fmt.Errorf("core: %s has no memory profile", b.Name)
	}
	mh, err := cache.NewMulti(p, maxBoundary)
	if err != nil {
		return nil, nil, err
	}
	cur := trace.DecodedFor(trace.RefsFor(b, seed), trace.Geometry{BlockBytes: p.BlockBytes, Sets: p.Sets()}).Cursor()
	if warm > 0 {
		mh.Replay(cur, warm)
	}
	base := mh.Stats()
	mh.Replay(cur, refs)
	after := mh.Stats()
	mh.PublishObs()

	instrs := float64(refs) / b.Mem.RefsPerInstr
	tpi = make([]float64, maxBoundary+1)
	tpiMiss = make([]float64, maxBoundary+1)
	tpi[0], tpiMiss[0] = math.Inf(1), math.Inf(1)
	for k := 1; k <= maxBoundary; k++ {
		t := cache.TimingFor(p, k)
		l1m := after[k].L1Misses - base[k].L1Misses
		l2m := after[k].L2Misses - base[k].L2Misses
		stall := float64(l1m-l2m)*float64(t.L2HitCycles) + float64(l2m)*float64(t.L2HitCycles+t.MemCycles)
		cycles := instrs*baseCPI + stall
		dt := cycles * t.CycleNS
		tpi[k] = dt / instrs
		tpiMiss[k] = (stall * t.CycleNS) / instrs
	}
	return tpi, tpiMiss, nil
}

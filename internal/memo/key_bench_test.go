package memo_test

import (
	"testing"

	"capsim/internal/core"
	"capsim/internal/experiments"
	"capsim/internal/memo"
	"capsim/internal/workload"
)

// BenchmarkKey times memo.Key on the three key shapes the warm paths build
// most: a cache-profile row (an application's full profile plus the cache
// geometry), an interval-policy row (a profile plus a policy by content) and
// the API server's response key (an experiment id and a Config). Each study
// row's parts start with a 16-hex model epoch, as in internal/experiments.
func BenchmarkKey(b *testing.B) {
	const epoch = "0123456789abcdef"
	cfg := experiments.DefaultConfig()
	shapes := map[string][]any{
		"cacheprof": {epoch, workload.MustByName("gcc"), cfg.Seed, cfg.CacheParams, 10,
			cfg.CacheWarmRefs, cfg.CacheRefs},
		"qpolicy": {epoch, workload.MustByName("vortex"), cfg.Seed, []int{16, 128},
			&core.IntervalPolicy{Configs: []int{0, 1}}, int64(300), cfg.IntervalInstrs, cfg.PenaltyCycles, cfg.Feature},
		"server": {"fig7", cfg},
	}
	for _, name := range []string{"cacheprof", "qpolicy", "server"} {
		parts := shapes[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, ok := memo.Key(parts...); !ok {
					b.Fatal("no key")
				}
			}
		})
	}
}

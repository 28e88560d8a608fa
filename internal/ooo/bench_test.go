package ooo_test

import (
	"testing"

	"capsim/internal/core"
	"capsim/internal/ooo"
	"capsim/internal/workload"
)

// sliceSource replays a pre-materialized instruction slice through the
// MultiCore bulk-read path, wrapping at the end, so a benchmark measures the
// issue kernel alone: no generator, no op-store decoding.
type sliceSource struct {
	ins []workload.Instr
	pos int
}

func (s *sliceSource) Next() workload.Instr {
	in := s.ins[s.pos]
	if s.pos++; s.pos == len(s.ins) {
		s.pos = 0
	}
	return in
}

func (s *sliceSource) CopyNext(dst []workload.Instr) int {
	n := copy(dst, s.ins[s.pos:])
	if s.pos += n; s.pos == len(s.ins) {
		s.pos = 0
	}
	return n
}

// BenchmarkMultiCore profiles the paper's eight queue sizes in one MultiCore
// pass per application, from an instruction slice materialized before the
// timer starts; "chain" is an IPC-1 dependence chain (every instruction
// reads its predecessor, latency 1), which costs one simulated cycle per
// instruction and so isolates the per-cycle path. It reports ns per
// simulated instruction per core.
func BenchmarkMultiCore(b *testing.B) {
	const instrs = 30_000
	sizes := core.PaperQueueSizes()
	cfgs := make([]ooo.Config, len(sizes))
	for i, w := range sizes {
		cfgs[i] = ooo.PaperConfig(w)
	}
	// Each core issues instrs and holds at most a window in flight; the
	// shared buffer reads ahead by at most two refill batches.
	n := instrs + sizes[len(sizes)-1] + 2*4096
	chain := make([]workload.Instr, n)
	for i := range chain {
		chain[i] = workload.Instr{Src: [2]int32{1, 0}, Latency: 1}
	}
	run := func(b *testing.B, ins []workload.Instr) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mc, err := ooo.NewMultiCore(cfgs)
			if err != nil {
				b.Fatal(err)
			}
			mc.RunEach(&sliceSource{ins: ins}, instrs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(sizes))*instrs), "ns/core-instr")
	}
	for _, app := range []string{"gcc", "turb3d", "vortex", "compress", "appcg"} {
		s := workload.NewInstrStream(workload.MustByName(app), 1998)
		ins := make([]workload.Instr, n)
		for i := range ins {
			ins[i] = s.Next()
		}
		b.Run(app, func(b *testing.B) { run(b, ins) })
	}
	b.Run("chain", func(b *testing.B) { run(b, chain) })
}

package workload

import "testing"

// genBatch is the number of items each benchmark iteration generates.
const genBatch = 1 << 12

// reportPerItem reports the benchmark's time per generated item, for
// iterations that each generate genBatch items.
func reportPerItem(b *testing.B, unit string) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*genBatch), unit)
}

// BenchmarkAddressTraceGen tracks the raw cost of synthetic trace generation
// — the quantity the one-pass profiling path amortizes from once-per-boundary
// to once-per-application. One sub-benchmark per application whose region
// mixes span the cache registry (gcc's random runs only, loop-dominated
// stereo, swim's random runs beside an 8 MB stream, appcg's loop and short
// runs); an iteration is one Fill of genBatch references and ns/ref is the
// time per reference. The buffer is reused
// across iterations, so after the first fill the loop is allocation-free
// (Fill only allocates when cap(out) < n); see
// BenchmarkAddressTraceGenNilBuf for the anti-pattern.
func BenchmarkAddressTraceGen(b *testing.B) {
	for _, name := range []string{"gcc", "stereo", "swim", "appcg"} {
		b.Run(name, func(b *testing.B) {
			tr := NewAddressTrace(MustByName(name), 1998)
			var buf []Ref
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = tr.Fill(buf, genBatch)
			}
			reportPerItem(b, "ns/ref")
			if len(buf) != genBatch {
				b.Fatal("short fill")
			}
		})
	}
}

// BenchmarkAddressTraceGenNilBuf is the historical caller behaviour — a nil
// destination every batch — which pays one slice allocation per Fill.
func BenchmarkAddressTraceGenNilBuf(b *testing.B) {
	tr := NewAddressTrace(MustByName("gcc"), 1998)
	var buf []Ref
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.Fill(nil, genBatch)
	}
	reportPerItem(b, "ns/ref")
	if len(buf) != genBatch {
		b.Fatal("short fill")
	}
}

// BenchmarkInstrStreamGen is the instruction-side counterpart: the cost of
// generating the synthetic dynamic instruction stream, amortized by the
// one-pass queue-profiling path from once-per-queue-size to
// once-per-application. One sub-benchmark per application whose
// distance/latency mixtures span the registry (long-distance gcc, phased
// turb3d and vortex, short-chain compress, streaming appcg); an iteration is
// one Fill of genBatch instructions and ns/instr, the time per instruction,
// is dominated by the geometric distance draws.
func BenchmarkInstrStreamGen(b *testing.B) {
	for _, name := range []string{"gcc", "turb3d", "vortex", "compress", "appcg"} {
		b.Run(name, func(b *testing.B) {
			s := NewInstrStream(MustByName(name), 1998)
			var buf []Instr
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = s.Fill(buf, genBatch)
			}
			reportPerItem(b, "ns/instr")
			if len(buf) != genBatch {
				b.Fatal("short fill")
			}
		})
	}
}

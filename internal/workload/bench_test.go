package workload

import "testing"

// BenchmarkAddressTraceGen tracks the raw cost of synthetic trace generation
// — the quantity the one-pass profiling path amortizes from once-per-boundary
// to once-per-application. The buffer is reused across iterations, so after
// the first fill the loop is allocation-free (Fill only allocates when
// cap(out) < n); see BenchmarkAddressTraceGenNilBuf for the anti-pattern.
func BenchmarkAddressTraceGen(b *testing.B) {
	tr := NewAddressTrace(MustByName("gcc"), 1998)
	const batch = 1 << 12
	var buf []Ref
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		buf = tr.Fill(buf, batch)
	}
	if len(buf) != batch {
		b.Fatal("short fill")
	}
}

// BenchmarkAddressTraceGenNilBuf is the historical caller behaviour — a nil
// destination every batch — which pays one slice allocation per Fill.
func BenchmarkAddressTraceGenNilBuf(b *testing.B) {
	tr := NewAddressTrace(MustByName("gcc"), 1998)
	const batch = 1 << 12
	b.ReportAllocs()
	b.ResetTimer()
	var buf []Ref
	for i := 0; i < b.N; i += batch {
		buf = tr.Fill(nil, batch)
	}
	if len(buf) != batch {
		b.Fatal("short fill")
	}
}

// BenchmarkInstrStreamGen is the instruction-side counterpart: the cost of
// generating the synthetic dynamic instruction stream, amortized by the
// one-pass queue-profiling path from once-per-queue-size to
// once-per-application. One sub-benchmark per application whose
// distance/latency mixtures span the registry (long-distance gcc, phased
// turb3d and vortex, short-chain compress, streaming appcg); ns/op is ns per
// instruction, dominated by the geometric distance draws.
func BenchmarkInstrStreamGen(b *testing.B) {
	for _, name := range []string{"gcc", "turb3d", "vortex", "compress", "appcg"} {
		b.Run(name, func(b *testing.B) {
			s := NewInstrStream(MustByName(name), 1998)
			const batch = 1 << 12
			var buf []Instr
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				buf = s.Fill(buf, batch)
			}
			if len(buf) != batch {
				b.Fatal("short fill")
			}
		})
	}
}

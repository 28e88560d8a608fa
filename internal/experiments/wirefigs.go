package experiments

import (
	"context"
	"fmt"

	"capsim/internal/cacti"
	"capsim/internal/metrics"
	"capsim/internal/palacharla"
	"capsim/internal/tech"
	"capsim/internal/wire"
)

func init() {
	register("fig1a", "Cache wire delay vs number of 2KB subarrays (Figure 1a)",
		func(context.Context, Config) (Result, error) { return cacheWireFig("fig1a", 2048), nil })
	register("fig1b", "Cache wire delay vs number of 4KB subarrays (Figure 1b)",
		func(context.Context, Config) (Result, error) { return cacheWireFig("fig1b", 4096), nil })
	register("fig2", "Integer queue wire delay vs number of entries (Figure 2)", fig2)
}

// refFeature is the generation whose layout the wire figures freeze: the
// paper scales buffer (device) delays linearly with feature size while wire
// delays remain constant, i.e. it evaluates successively faster devices on
// the same physical wires. This is also why its unbuffered curve is unique.
const refFeature = tech.Micron025

// arrayBusLoad is the address-bus load per cache subarray, in repeater input
// capacitances.
const arrayBusLoad = 8.0

// wireFig renders one Section 2 wire-delay figure over the structure sizes
// ns: the unbuffered bus at the reference generation against the optimally
// buffered bus at each generation. line(n, p) is the bus spanning n
// elements, its wires from the reference layout and its loads from
// generation p's devices.
func wireFig(id, title, xLabel string, ns []int, line func(n int, p tech.Params) wire.Line) Result {
	ref := tech.ForFeature(refFeature)
	xs := make([]float64, len(ns))
	unbuf := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
		unbuf[i] = wire.UnbufferedDelay(line(n, ref), ref)
	}
	fig := metrics.Figure{
		ID:     id,
		Title:  title,
		XLabel: xLabel,
		YLabel: "wire delay (ns)",
		Series: []metrics.Series{{Name: "Unbuffered", X: xs, Y: unbuf}},
	}
	for _, f := range tech.Generations() {
		p := tech.ForFeature(f)
		ys := make([]float64, len(ns))
		for i, n := range ns {
			ys[i], _ = wire.OptimalBufferedDelay(line(n, p), p)
		}
		fig.Series = append(fig.Series, metrics.Series{Name: "Buffers, " + f.String(), X: xs, Y: ys})
	}
	return Result{ID: id, Title: title, Figures: []metrics.Figure{fig}, Notes: crossoverNotes(fig)}
}

// cacheWireFig regenerates Figure 1(a) or 1(b): the address bus over a
// stack of cache subarrays.
func cacheWireFig(id string, subarrayBytes int) Result {
	bank := cacti.Config{SizeBytes: subarrayBytes, BlockBytes: 32, Assoc: 2}
	_, pitch := cacti.Dimensions(bank, tech.ForFeature(refFeature))
	return wireFig(id, fmt.Sprintf("Address-bus wire delay, %dKB subarrays", subarrayBytes/1024), "number of cache arrays",
		[]int{4, 6, 8, 10, 12, 14, 16}, func(n int, p tech.Params) wire.Line {
			return wire.Line{LengthMM: float64(n) * pitch, LoadC: float64(n) * arrayBusLoad * p.BufferC}
		})
}

// fig2 regenerates Figure 2: the integer queue's bus over its entries, each
// R10000-style entry equivalent to ~60 bytes of single-ported RAM.
func fig2(context.Context, Config) (Result, error) {
	ref := tech.ForFeature(refFeature)
	return wireFig("fig2", "Integer queue wire delay vs entries", "instruction queue entries",
		[]int{16, 24, 32, 40, 48, 56, 64}, func(n int, p tech.Params) wire.Line {
			return wire.Line{LengthMM: palacharla.BusLengthMM(n, ref), LoadC: float64(n) * palacharla.EntryLoadPF(p)}
		}), nil
}

// crossoverNotes reports, per buffered series, the first X at which
// buffering beats the unbuffered wire — the quantity the paper's Section 2
// prose highlights.
func crossoverNotes(fig metrics.Figure) []string {
	if len(fig.Series) == 0 {
		return nil
	}
	un := fig.Series[0]
	var notes []string
	for _, s := range fig.Series[1:] {
		cross := -1.0
		for i := range s.X {
			if s.Y[i] < un.Y[i] {
				cross = s.X[i]
				break
			}
		}
		if cross >= 0 {
			notes = append(notes, fmt.Sprintf("%s: buffering wins from %g %s", s.Name, cross, fig.XLabel))
		} else {
			notes = append(notes, fmt.Sprintf("%s: buffering never wins in range", s.Name))
		}
	}
	return notes
}

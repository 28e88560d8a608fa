// Command wiredelay explores the repeater (wire-buffer) tradeoff behind the
// CAP paper's Section 2: unbuffered vs optimally buffered bus delay for an
// arbitrary line, at any feature size.
//
// Usage:
//
//	wiredelay -length 3.5 -load 2.0
//	wiredelay -length 3.5 -load 2.0 -feature 0.12
package main

import (
	"flag"
	"fmt"
	"os"

	"capsim/internal/tech"
	"capsim/internal/wire"
)

func main() {
	var (
		length  = flag.Float64("length", 2.0, fmt.Sprintf("wire length in mm, in (0, %v]", wire.MaxLengthMM))
		load    = flag.Float64("load", 1.0, fmt.Sprintf("distributed element load in pF, in [0, %v]", wire.MaxLoadPF))
		feature = flag.Float64("feature", 0, fmt.Sprintf("feature size in microns, in [%v, %v] (0 = all paper generations)", float64(tech.MinFeature), float64(tech.MaxFeature)))
	)
	flag.Parse()

	l := wire.Line{LengthMM: *length, LoadC: *load}
	if err := l.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "wiredelay: %v\n", err)
		os.Exit(2)
	}
	features := tech.Generations()
	if f := tech.FeatureSize(*feature); f != 0 {
		if err := tech.CheckFeature("wiredelay", f); err != nil {
			fmt.Fprintf(os.Stderr, "%v (0 = all paper generations)\n", err)
			os.Exit(2)
		}
		features = []tech.FeatureSize{f}
	}
	fmt.Printf("line: %.2f mm, %.2f pF element load\n", *length, *load)
	for _, f := range features {
		p := tech.ForFeature(f)
		u := wire.UnbufferedDelay(l, p)
		b, k := wire.OptimalBufferedDelay(l, p)
		h := wire.OptimalRepeaterSize(l, p)
		best := "unbuffered"
		if b < u {
			best = "buffered"
		}
		fmt.Printf("%s: unbuffered %.3f ns | buffered %.3f ns (%d repeaters, %.1fx sizing) -> %s\n",
			f, u, b, k, h, best)
	}
}

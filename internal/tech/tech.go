// Package tech models CMOS process-technology parameters and their scaling
// with feature size, following the first-order rules used in the CAP paper
// (Albonesi, ISCA 1998, Section 2): device (transistor and buffer) delays
// scale linearly with feature size, while wire delays per unit length remain
// constant. Parameters are anchored at a 0.80 micron base process (the CACTI
// reference technology) and scaled down from there.
//
// All delays are in nanoseconds, capacitances in picofarads, resistances in
// ohms, and lengths in millimetres unless noted otherwise.
package tech

import (
	"fmt"
	"math"
)

// FeatureSize identifies a process generation by its drawn feature size in
// microns. The paper studies 0.25, 0.18 and 0.12 micron technologies.
type FeatureSize float64

// Valid reports whether f is a finite, positive feature size. NaN and +Inf
// fail it: neither compares as non-positive, yet both poison every scaled
// delay.
func (f FeatureSize) Valid() bool { return f > 0 && !math.IsInf(float64(f), 1) }

// Process generations referenced by the paper.
const (
	Micron080 FeatureSize = 0.80 // CACTI base technology
	Micron025 FeatureSize = 0.25
	Micron018 FeatureSize = 0.18
	Micron012 FeatureSize = 0.12
)

// Generations returns the process generations studied in the paper, largest
// feature size first (matching the figure legends).
func Generations() []FeatureSize {
	return []FeatureSize{Micron025, Micron018, Micron012}
}

func (f FeatureSize) String() string {
	return fmt.Sprintf("%.2fu", float64(f))
}

// Params holds the electrical parameters of a process generation that the
// wire and timing models need.
type Params struct {
	Feature FeatureSize

	// ScaleFactor is Feature / 0.80: device delays in this technology are
	// the 0.80 micron delays multiplied by this factor (linear scaling).
	ScaleFactor float64

	// BufferDelay is the unloaded intrinsic delay of a repeater stage in
	// ns (its loaded drive delay is computed separately from BufferR and
	// BufferC). Scales linearly with feature size.
	BufferDelay float64

	// BufferR is the output resistance of a minimum-size repeater in ohms.
	// To first order it is constant across generations (smaller devices
	// have higher resistance per square but repeaters are sized up).
	BufferR float64

	// BufferC is the input capacitance of a minimum-size repeater in pF.
	// Scales linearly with feature size.
	BufferC float64

	// WireRPerMM is wire resistance per millimetre in ohms. Wire
	// cross-sections shrink with scaling, so resistance per mm rises as
	// feature size falls; the paper's first-order treatment keeps the
	// wire RC product per mm constant, which we follow by holding both R
	// and C per mm constant and attributing all scaling to devices.
	WireRPerMM float64

	// WireCPerMM is wire capacitance per millimetre in pF. Constant to
	// first order (fringing dominates).
	WireCPerMM float64

	// GateDelayFO4 is the fanout-of-4 inverter delay in ns, the canonical
	// logic-speed yardstick for the generation.
	GateDelayFO4 float64
}

// base holds the 0.80 micron anchor values. The buffer parameters follow
// Bakoglu's canonical examples (Rbuf ~ 1 kOhm, Cbuf ~ 0.1 pF driver at the
// base generation); wire parameters are intra-structure intermediate metal
// (R = 300 Ohm/mm, C = 0.25 pF/mm — thin, tightly pitched routing, the kind
// of wire that runs the global address/data buses inside a cache or queue).
// These reproduce the magnitude of the delays in the paper's Figures 1-2
// (0.1-6 ns for mm-scale buses).
var base = Params{
	Feature:      Micron080,
	ScaleFactor:  1.0,
	BufferDelay:  0.08,
	BufferR:      1000.0,
	BufferC:      0.100,
	WireRPerMM:   300.0,
	WireCPerMM:   0.25,
	GateDelayFO4: 0.80,
}

// ForFeature returns the process parameters for the given feature size,
// scaling device quantities linearly from the 0.80 micron anchor. Wire
// R and C per millimetre are held constant per the paper's first-order
// assumption. It panics if the feature size is not finite and positive; use
// FeatureSize.Valid for non-panicking checks.
func ForFeature(f FeatureSize) Params {
	if !f.Valid() {
		panic(fmt.Sprintf("tech: feature size %v must be finite and positive", float64(f)))
	}
	s := float64(f) / float64(Micron080)
	return Params{
		Feature:      f,
		ScaleFactor:  s,
		BufferDelay:  base.BufferDelay * s,
		BufferR:      base.BufferR,
		BufferC:      base.BufferC * s,
		WireRPerMM:   base.WireRPerMM,
		WireCPerMM:   base.WireCPerMM,
		GateDelayFO4: base.GateDelayFO4 * s,
	}
}

// WireTauPerMM2 returns the distributed wire RC time constant per square
// millimetre in ns/mm^2. The Elmore delay of an unbuffered wire of length L
// is 0.4 * tau * L^2 (0.5 for a lumped approximation; 0.4 matches the
// distributed-RC coefficient Bakoglu uses).
func (p Params) WireTauPerMM2() float64 {
	// ohm * pF = picoseconds; convert to ns.
	return p.WireRPerMM * p.WireCPerMM * 1e-3
}

// BitCellSide returns the layout edge of a single-ported SRAM cell in mm for
// this generation. CACTI's base cell is roughly 16 lambda on a side; with
// lambda = feature/2 this gives an 8*feature square cell, which reproduces
// typical published macro sizes (an 8 KB bank ~1 mm^2 at 0.25u with
// overheads).
func (p Params) BitCellSide() float64 {
	const lambdaPerSide = 16.0
	return lambdaPerSide * float64(p.Feature) / 2.0 / 1000.0 // um -> mm
}

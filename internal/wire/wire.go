// Package wire implements distributed-RC wire delay and Bakoglu's optimal
// repeater-insertion methodology (Bakoglu & Meindl, IEEE ToC 1985), the wire
// model the CAP paper uses for the global address and data buses of its
// adaptive structures (Section 2).
//
// An unbuffered wire of length L has Elmore delay 0.4*Rw*Cw*L^2 plus the
// driver term; it grows quadratically with length. Splitting the wire into k
// segments separated by repeaters makes each segment's quadratic term small,
// yielding total delay linear in L for the optimal k. The crossover between
// the two regimes, and its movement with feature size, is exactly what
// Figures 1 and 2 of the paper plot.
package wire

import (
	"fmt"
	"math"

	"capsim/internal/tech"
)

// Line describes a global bus wire to be analyzed.
type Line struct {
	// LengthMM is the total routed length in millimetres.
	LengthMM float64
	// LoadC is the total distributed load capacitance hung on the wire by
	// the elements it feeds (pF), e.g. the gate capacitance of the local
	// decoders of every cache increment on an address bus. It is treated
	// as uniformly distributed along the line.
	LoadC float64
}

// The physical range Validate accepts. A die edge is a few tens of
// millimetres, so MaxLengthMM bounds every on-chip line with margin; MaxLoadPF
// is at least 10^4 minimum-size repeater inputs, far beyond any bus in the
// paper's structures. Outside this range the model's answers mean nothing,
// and the repeater search, which scans up to about sqrt(R·C) stage counts,
// would take unbounded time or overflow.
const (
	MaxLengthMM = 100.0
	MaxLoadPF   = 1000.0
)

// Validate reports whether the line is physically sensible: a length in
// (0, MaxLengthMM] mm and a load in [0, MaxLoadPF] pF. NaN fails every
// comparison, so each bound is stated as the condition that must hold.
func (l Line) Validate() error {
	if !(l.LengthMM > 0 && l.LengthMM <= MaxLengthMM) {
		return fmt.Errorf("wire: length %v mm outside (0, %v]", l.LengthMM, MaxLengthMM)
	}
	if !(l.LoadC >= 0 && l.LoadC <= MaxLoadPF) {
		return fmt.Errorf("wire: load capacitance %v pF outside [0, %v]", l.LoadC, MaxLoadPF)
	}
	return nil
}

// totalRC returns the total wire resistance (ohm) and capacitance (pF)
// including the distributed element load.
func (l Line) totalRC(p tech.Params) (r, c float64) {
	r = p.WireRPerMM * l.LengthMM
	c = p.WireCPerMM*l.LengthMM + l.LoadC
	return r, c
}

// UnbufferedDelay returns the wire delay in ns of the line with no
// intermediate buffers:
//
//	t = 0.4*Rw*(Cw+Cl)
//
// the distributed-RC Elmore delay (the driver's own delay is excluded — the
// paper plots the wire delay proper, which is why its figures contain a
// single unbuffered curve: wire RC per mm is constant across generations).
// Because Rw and the capacitance are both proportional to line length, this
// grows quadratically with structure size.
func UnbufferedDelay(l Line, p tech.Params) float64 {
	r, c := l.totalRC(p)
	// ohm*pF = ps; 1e-3 converts to ns.
	return 0.4 * r * c * 1e-3
}

// OptimalRepeaterCount returns the optimal number of repeater stages for
// the line. It starts from Bakoglu's closed form
// k = sqrt(0.4*Rw*Cw / (0.7*R0*C0)) — exact for a pure distributed wire —
// and refines it by direct minimization of BufferedDelay, which matters when
// lumped element loads or the repeater intrinsic delay are significant.
// Counts whose delays agree to within a relative 1e-12 tie, and a tie keeps
// the smaller count: float rounding of an exact tie must not buy a stage.
func OptimalRepeaterCount(l Line, p tech.Params) int {
	r, c := l.totalRC(p)
	k0 := int(math.Round(math.Sqrt((0.4 * r * c) / (0.7 * p.BufferR * p.BufferC))))
	if k0 < 1 {
		k0 = 1
	}
	best, bestD := 1, BufferedDelay(l, 1, p)
	for k := 2; k <= 2*k0+4; k++ {
		if d := BufferedDelay(l, k, p); bestD-d > 1e-12*bestD {
			best, bestD = k, d
		}
	}
	return best
}

// OptimalRepeaterSize returns Bakoglu's optimal repeater sizing ratio
// h = sqrt(R0*Cw / (Rw*C0)) relative to a minimum repeater.
func OptimalRepeaterSize(l Line, p tech.Params) float64 {
	r, c := l.totalRC(p)
	if r == 0 || p.BufferC == 0 {
		return 1
	}
	h := math.Sqrt((p.BufferR * c) / (r * p.BufferC))
	if h < 1 {
		return 1
	}
	return h
}

// BufferedDelay returns the delay in ns of the line split into k equal
// segments by optimally sized repeaters:
//
//	t = k * [ 0.7*(R0/h)*(Cseg + h*C0) + 0.4*Rseg*Cseg + 0.7*Rseg*h*C0 + t_int ]
//
// Bakoglu's per-stage form: each of the k stages contributes a driver term
// (the upsized repeater charging its wire segment and the next repeater's
// input), a distributed wire term, and the repeater's unloaded intrinsic
// delay t_int. The driver and intrinsic terms scale linearly with feature
// size — the source of the per-generation buffered curves in the paper's
// figures — while the wire term does not.
func BufferedDelay(l Line, k int, p tech.Params) float64 {
	if k < 1 {
		k = 1
	}
	r, c := l.totalRC(p)
	h := OptimalRepeaterSize(l, p)
	rd := p.BufferR / h                                // upsized driver resistance
	cb := p.BufferC * h                                // upsized repeater input capacitance
	rs := r / float64(k)                               // per-segment wire resistance
	cs := c / float64(k)                               // per-segment wire capacitance
	perStage := 0.7*rd*(cs+cb) + 0.4*rs*cs + 0.7*rs*cb // ps
	return float64(k) * (perStage*1e-3 + p.BufferDelay)
}

// OptimalBufferedDelay returns the buffered delay using the optimal repeater
// count, together with that count.
func OptimalBufferedDelay(l Line, p tech.Params) (delay float64, repeaters int) {
	k := OptimalRepeaterCount(l, p)
	return BufferedDelay(l, k, p), k
}

// BestDelay returns the smaller of the unbuffered and optimally buffered
// delays, and whether buffering won. The paper applies exactly this rule when
// constructing its conventional baselines: "whenever buffered line delays
// were faster than unbuffered delays, we used buffered values for the
// conventional cache hierarchy as well."
func BestDelay(l Line, p tech.Params) (delay float64, buffered bool) {
	u := UnbufferedDelay(l, p)
	b, _ := OptimalBufferedDelay(l, p)
	if b < u {
		return b, true
	}
	return u, false
}

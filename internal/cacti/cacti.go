// Package cacti provides an analytic SRAM/cache access-time model in the
// style of CACTI (Wilton & Jouppi, WRL TR 93/5), the timing tool the CAP
// paper uses to obtain individual cache-increment delays (Section 5.1). It
// is a deliberately simplified reimplementation: it keeps CACTI's structure
// (decoder, wordline, bitline, sense amplifier, tag compare, data output)
// and its scaling behaviour with capacity, block size, associativity and
// feature size, without the transistor-level curve fitting. Absolute values
// are anchored so an 8 KB two-way bank at 0.18 micron accesses in ~1.4 ns,
// matching the magnitude the paper's TPI plots imply (cycle time = L1 access
// / 3 ~ 0.47 ns, the floor of Figure 7a).
package cacti

import (
	"fmt"
	"math"

	"capsim/internal/tech"
)

// Config describes a single cache bank (in the adaptive hierarchy, one
// "increment": a complete subcache containing both tags and data).
type Config struct {
	// SizeBytes is the bank's data capacity in bytes.
	SizeBytes int
	// BlockBytes is the cache block (line) size in bytes.
	BlockBytes int
	// Assoc is the set associativity of the bank.
	Assoc int
	// Subarrays is the number of data subarrays the bank is partitioned
	// into (CACTI's Ndwl*Ndbl). More subarrays shorten word and bit lines
	// at the cost of extra decode. 0 means "choose automatically".
	Subarrays int
	// TagBits is the number of tag bits compared per access; 0 selects a
	// typical 32-bit physical address default derived from the geometry.
	TagBits int
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0:
		return fmt.Errorf("cacti: size %d must be positive", c.SizeBytes)
	case c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("cacti: block size %d must be a positive power of two", c.BlockBytes)
	case c.Assoc <= 0:
		return fmt.Errorf("cacti: associativity %d must be positive", c.Assoc)
	case c.SizeBytes%(c.BlockBytes*c.Assoc) != 0:
		return fmt.Errorf("cacti: size %d not divisible by block*assoc %d", c.SizeBytes, c.BlockBytes*c.Assoc)
	case c.Subarrays < 0:
		return fmt.Errorf("cacti: negative subarray count %d", c.Subarrays)
	}
	if s := c.Sets(); s < 1 {
		return fmt.Errorf("cacti: configuration yields %d sets", s)
	}
	return nil
}

// Sets returns the number of sets in the bank.
func (c Config) Sets() int { return c.SizeBytes / (c.BlockBytes * c.Assoc) }

// tagBits returns the effective tag width.
func (c Config) tagBits() int {
	if c.TagBits > 0 {
		return c.TagBits
	}
	// 32-bit physical address minus index and offset bits.
	idx := int(math.Round(math.Log2(float64(c.Sets()))))
	off := int(math.Round(math.Log2(float64(c.BlockBytes))))
	tb := 32 - idx - off
	if tb < 8 {
		tb = 8
	}
	return tb
}

// subarrays returns the effective subarray count: the explicit one, or an
// automatic choice targeting subarrays of at most 128 rows (CACTI's
// partitioning heuristic keeps bitlines short as capacity grows).
func (c Config) subarrays() int {
	if c.Subarrays > 0 {
		return c.Subarrays
	}
	n := 1
	for c.Sets()/n > 128 {
		n *= 2
	}
	return n
}

// Breakdown itemizes the access-time components in nanoseconds.
type Breakdown struct {
	Decoder      float64
	Wordline     float64
	Bitline      float64
	SenseAmp     float64
	TagCompare   float64
	OutputDriver float64
}

// Total returns the bank access time in ns (the critical tag-side path plus
// output; CACTI takes the max of tag and data sides, which our simplified
// geometry keeps balanced, so a sum of the shared stages is used).
func (b Breakdown) Total() float64 {
	return b.Decoder + b.Wordline + b.Bitline + b.SenseAmp + b.TagCompare + b.OutputDriver
}

// AccessTime computes the bank access-time breakdown for the given process.
// Device-limited stages scale linearly with feature size; wire-limited
// stages (word and bit lines) combine a device term with a constant wire-RC
// term derived from the physical array dimensions, so large banks stop
// improving with scaling — the effect that motivates the paper. It panics
// on an invalid Config.
func AccessTime(c Config, p tech.Params) Breakdown {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	n := c.subarrays()
	rowsPerSub := float64(c.Sets()) / float64(n)
	if rowsPerSub < 1 {
		rowsPerSub = 1
	}
	bitsPerRow := float64(c.BlockBytes*8*c.Assoc) / float64(n)
	if bitsPerRow < 8 {
		bitsPerRow = 8
	}

	cell := p.BitCellSide()        // mm
	subWidth := bitsPerRow * cell  // mm
	subHeight := rowsPerSub * cell // mm
	tau := p.WireTauPerMM2()       // ns/mm^2
	fo4 := p.GateDelayFO4          // ns

	// Decoder: a predecode + final stage chain whose depth grows with
	// log2(rows), plus fanout to n subarrays.
	totalRows := rowsPerSub
	dec := fo4 * (1.0 + 0.22*math.Log2(totalRows) + 0.1*math.Log2(float64(n)+1))

	// Wordline: driver (device) + distributed RC across the subarray width.
	wl := 0.4*fo4 + 0.4*tau*subWidth*subWidth + 0.02*fo4*bitsPerRow/64.0

	// Bitline: cell drive is weak, so the device term grows with the rows
	// hanging off the line (diffusion load) plus the wire RC of the column.
	bl := 0.5*fo4 + 0.010*fo4*rowsPerSub + 0.4*tau*subHeight*subHeight

	// Sense amplifier: fixed device delay.
	sa := 0.6 * fo4

	// Tag compare: a tagBits-wide XOR-reduce tree.
	cmp := fo4 * (0.7 + 0.12*math.Log2(float64(c.tagBits())))

	// Output driver / way-select multiplexing: grows with associativity
	// (mux depth) and with the data path crossing the bank.
	out := fo4*(0.5+0.15*math.Log2(float64(c.Assoc)+1)) + 0.4*tau*subWidth*subWidth*0.25

	return Breakdown{
		Decoder:      dec,
		Wordline:     wl,
		Bitline:      bl,
		SenseAmp:     sa,
		TagCompare:   cmp,
		OutputDriver: out,
	}
}

// Dimensions returns the physical footprint of the bank in millimetres
// (width, height), including a fixed 40% overhead for decoders, sense
// amplifiers and routing. The adaptive-cache bus model uses the height to
// derive the global address/data bus length spanning a stack of increments.
func Dimensions(c Config, p tech.Params) (width, height float64) {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	bits := float64(c.SizeBytes * 8)
	tagBits := float64(c.tagBits()+2) * float64(c.Sets()*c.Assoc) // +valid,+dirty
	cell := p.BitCellSide()
	area := (bits + tagBits) * cell * cell * 1.4
	// Aspect ratio ~2:1 (wider than tall) is typical for banked caches.
	height = math.Sqrt(area / 2.0)
	width = 2.0 * height
	return width, height
}

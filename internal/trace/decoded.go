package trace

import (
	"fmt"
	"math/bits"
)

// Geometry is the part of a cache organization that determines the
// (set, tag) decomposition of an address. By the paper's constant-index
// mapping rule, every boundary position of one adaptive hierarchy shares one
// Geometry — which is exactly why a single decoded stream serves the whole
// boundary family.
type Geometry struct {
	BlockBytes int
	Sets       int
}

// Validate reports whether the geometry is decodable.
func (g Geometry) Validate() error {
	if g.BlockBytes <= 0 || g.BlockBytes&(g.BlockBytes-1) != 0 {
		return fmt.Errorf("trace: block size %d must be a positive power of two", g.BlockBytes)
	}
	if g.Sets <= 0 {
		return fmt.Errorf("trace: set count %d must be positive", g.Sets)
	}
	return nil
}

// Decoded is the (set, tag) view of a RefStore under one geometry. It holds
// no storage: the pair is a shift and mask of the address (div/mod when the
// set count is not a power of two), so its cursors decode each reference in
// place from the store's own chunks.
type Decoded struct {
	src  *RefStore
	sets uint64

	// Power-of-two fast decode (blockShift/setMask/setShift) when sets is a
	// power of two; div/mod fallback otherwise. Both produce identical
	// values — shift/mask IS div/mod for powers of two.
	pow2       bool
	blockShift uint
	setMask    uint64
	setShift   uint
}

// DecodedFor returns the decoded view of store s under geometry g. It panics
// on an invalid geometry (callers validate their cache parameters first).
func DecodedFor(s *RefStore, g Geometry) Decoded {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	d := Decoded{src: s, sets: uint64(g.Sets), blockShift: uint(bits.TrailingZeros(uint(g.BlockBytes)))}
	if g.Sets&(g.Sets-1) == 0 {
		d.pow2 = true
		d.setShift = uint(bits.TrailingZeros(uint(g.Sets)))
		d.setMask = uint64(g.Sets - 1)
	}
	return d
}

// Decode splits one address into its (set, tag) pair under the view's
// geometry; exported for tests that cross-check against cache.Hierarchy.
func (d *Decoded) Decode(addr uint64) (set int32, tag uint64) {
	// The shift counts are below 64 by construction; masking them says so
	// to the compiler, which then drops its oversized-shift fixups.
	block := addr >> (d.blockShift & 63)
	if d.pow2 {
		return int32(block & d.setMask), block >> (d.setShift & 63)
	}
	return int32(block % d.sets), block / d.sets
}

// Len returns how many references the view replays without generating: its
// source store's materialized length.
func (d Decoded) Len() int64 { return d.src.Len() }

// Cursor returns a replay cursor over the decoded stream. Not safe for
// concurrent use; each goroutine takes its own.
func (d Decoded) Cursor() *DecodedCursor {
	return &DecodedCursor{refPos: refPos{s: d.src, idx: ChunkLen}, d: d}
}

// DecodedCursor replays (set, tag, write) references in stream order,
// decoding each from the source chunk as it goes. It implements
// cache.DecodedSource.
type DecodedCursor struct {
	refPos
	d Decoded
}

// NextDecoded returns the next reference's set index, tag and write flag.
// It repeats RefCursor.Next's body rather than calling it: Next is too big
// to inline, and a call per reference costs measurably on the replay path.
func (c *DecodedCursor) NextDecoded() (set int32, tag uint64, write bool) {
	if c.idx == ChunkLen {
		c.load()
	}
	i := c.idx
	c.idx++
	u, off := uvarintAt(c.c.enc, c.off)
	c.off = off
	c.prev += uint64(unzigzag(u))
	set, tag = c.d.Decode(c.prev)
	return set, tag, c.c.writes[i>>6]>>(uint(i)&63)&1 == 1
}

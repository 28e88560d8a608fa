package trace

import (
	"fmt"

	"capsim/internal/cache"
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
// set count is not a power of two), computed by the cache package's own
// Indexer, so its cursors decode each reference as they generate it, exactly
// as a live cache.Hierarchy would.
type Decoded struct {
	src *RefStore
	ix  cache.Indexer
}

// DecodedFor returns the decoded view of store s under geometry g. It panics
// on an invalid geometry (callers validate their cache parameters first).
func DecodedFor(s *RefStore, g Geometry) Decoded {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return Decoded{src: s, ix: cache.NewIndexer(g.BlockBytes, g.Sets)}
}

// Decode splits one address into its (set, tag) pair under the view's
// geometry; exported for tests that cross-check against cache.Hierarchy.
func (d *Decoded) Decode(addr uint64) (set int32, tag uint64) {
	s, tag := d.ix.Index(addr)
	return int32(s), tag
}

// Len returns how many references the view replays without generating: its
// source store's materialized length, always 0.
func (d Decoded) Len() int64 { return d.src.Len() }

// Cursor returns a cursor over the decoded stream, with its own generator.
// Not safe for concurrent use; each goroutine takes its own.
func (d Decoded) Cursor() *DecodedCursor {
	return &DecodedCursor{refPos: d.src.pos(), d: d}
}

// DecodedCursor yields (set, tag, write) references in stream order,
// decoding each as it is generated. It implements cache.DecodedSource.
type DecodedCursor struct {
	refPos
	d Decoded
}

// NextDecoded returns the next reference's set index, tag and write flag.
func (c *DecodedCursor) NextDecoded() (set int32, tag uint64, write bool) {
	if c.i == genBlock {
		c.refill()
	}
	r := c.buf[c.i]
	c.i++
	set, tag = c.d.Decode(r.Addr)
	return set, tag, r.Write
}

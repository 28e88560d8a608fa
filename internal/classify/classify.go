// Package classify is the classification-stream tier: for one application's
// reference stream it materializes the per-reference OUTCOME of every
// cache-boundary position — which level each reference resolved at, plus the
// structural side effects (exclusive swap on an L2 hit, dirty-victim
// writeback on a miss) — and lets any number of consumers replay those
// outcomes without touching a hierarchy again.
//
// The stream sits between the reference stream (generated and decoded in
// place by internal/trace) and the joint cache×queue kernel
// (core.MultiCombined): where MultiHierarchy made the reference stream
// decode once per *family pass*, classify makes the hierarchy itself run
// once per joint pass, and each of the kernel's cells replays its
// boundary's row through its own cursor.
//
// Encoding. Each boundary row is an RLE + varint byte stream over the 4-class
// alphabet of cache.AccessClasses: runs of one class encode as a single
// LEB128 varint holding class | runLength<<2. Spatial locality makes L1-hit
// runs enormous (the stack-distance-zero fast path), so rows compress to a
// small fraction of one byte per reference. Rows are independent: a cursor
// holds (offset, remaining, class) — three words, no shared decode state.
//
// StreamFor keeps nothing: its one caller replays each stream within the
// call that built it, and that call's result is itself a memoized and
// persisted study row.
package classify

import (
	"encoding/binary"
	"fmt"

	"capsim/internal/cache"
	"capsim/internal/obs"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// Telemetry: stream generations and replays, both obs-gated.
var (
	obsGens    = obs.NewCounter("classify.gens")    // streams generated (hierarchy passes)
	obsReplays = obs.NewCounter("classify.replays") // cursors opened over a stream
)

// Stream is one materialized classification family: for boundaries
// 1..maxB, the outcome class of each of the first nrefs references of one
// (benchmark, seed, geometry) stream.
type Stream struct {
	maxB  int
	nrefs int64
	rows  [][]byte // rows[k-1]: boundary k's RLE+varint class stream
}

// Cursor returns a replay cursor over boundary k's row (1-based, like
// cache.MultiHierarchy.Stats). Cursors are independent and cheap; opening one
// counts as a replay.
func (s *Stream) Cursor(k int) *Cursor {
	if k < 1 || k > s.maxB {
		panic(fmt.Sprintf("classify: boundary %d outside [1,%d]", k, s.maxB))
	}
	obsReplays.Inc()
	return &Cursor{row: s.rows[k-1], limit: s.nrefs}
}

// Cursor decodes one boundary row incrementally: one class per Next, keeping
// only (byte offset, current run). Reading past the stream's materialized
// length panics — it means the consumer's reference budget was computed
// wrong, and silently recycling classes would corrupt a simulation.
type Cursor struct {
	row   []byte
	off   int
	run   int64 // remaining repetitions of cls, current run included
	cls   uint8
	read  int64
	limit int64
}

// Next returns the next reference's outcome class.
func (c *Cursor) Next() uint8 {
	if c.run == 0 {
		if c.read >= c.limit {
			panic(fmt.Sprintf("classify: replay past materialized stream (%d refs)", c.limit))
		}
		v, n := binary.Uvarint(c.row[c.off:])
		c.off += n
		c.cls = uint8(v & 3)
		c.run = int64(v >> 2)
	}
	c.run--
	c.read++
	return c.cls
}

// encoder accumulates one row's RLE stream.
type encoder struct {
	buf []byte
	cls uint8
	run int64
}

func (e *encoder) add(cls uint8) {
	if cls == e.cls {
		e.run++
		return
	}
	e.flush()
	e.cls, e.run = cls, 1
}

func (e *encoder) flush() {
	if e.run > 0 {
		e.buf = binary.AppendUvarint(e.buf, uint64(e.run)<<2|uint64(e.cls&3))
	}
	e.run = 0
}

// StreamFor returns the classification stream for the first nrefs references
// of (b, seed) under geometry p, boundaries 1..maxB, generated by one
// MultiHierarchy pass: every reference is generated and decoded once, in
// place (trace.DecodedFor), and classifies at every boundary in lockstep
// (cache.AccessClasses), appending to the per-boundary RLE encoders.
func StreamFor(b workload.Benchmark, seed uint64, p cache.Params, maxB int, nrefs int64) (*Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lo, hi := p.Boundaries()
	if maxB < lo || maxB > hi {
		return nil, fmt.Errorf("classify: max boundary %d outside [%d,%d]", maxB, lo, hi)
	}
	if nrefs < 0 {
		return nil, fmt.Errorf("classify: negative reference count %d", nrefs)
	}
	mh, err := cache.NewMulti(p, maxB)
	if err != nil {
		return nil, err
	}
	dec := trace.DecodedFor(trace.RefsFor(b, seed), trace.Geometry{BlockBytes: p.BlockBytes, Sets: p.Sets()}).Cursor()
	encs := make([]encoder, maxB)
	classes := make([]uint8, maxB)
	for i := int64(0); i < nrefs; i++ {
		set, tag, write := dec.NextDecoded()
		mh.AccessClasses(int(set), tag, write, classes)
		for kb := range encs {
			encs[kb].add(classes[kb])
		}
	}
	rows := make([][]byte, maxB)
	for kb := range encs {
		encs[kb].flush()
		rows[kb] = encs[kb].buf
	}
	mh.PublishObs()
	obsGens.Inc()
	return &Stream{maxB: maxB, nrefs: nrefs, rows: rows}, nil
}

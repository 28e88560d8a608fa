// Package classify is the classification-stream tier: for one application's
// reference stream it materializes, once, the per-reference OUTCOME of every
// cache-boundary position — which level each reference resolved at, plus the
// structural side effects (exclusive swap on an L2 hit, dirty-victim
// writeback on a miss) — and lets any number of consumers replay those
// outcomes without touching a hierarchy again.
//
// The stream is the memoization layer between the trace tier (raw references,
// internal/trace) and the simulation kernels (internal/core): where
// MultiHierarchy made the reference stream decode once per *family pass*,
// classify makes the hierarchy itself run once per (app, seed, geometry,
// boundary-range, length) — every later consumer (the joint cache×queue
// kernel's cells, warm re-runs, shard merges, future policy-zoo contenders)
// is a cursor over a compressed byte stream.
//
// Encoding. Each boundary row is an RLE + varint byte stream over the 4-class
// alphabet of cache.AccessClasses: runs of one class encode as a single
// LEB128 varint holding class | runLength<<2. Spatial locality makes L1-hit
// runs enormous (the stack-distance-zero fast path), so rows compress to a
// small fraction of one byte per reference. Rows are independent: a cursor
// holds (offset, remaining, class) — three words, no shared decode state.
//
// Publication. StreamFor is memoized behind internal/memo singleflight, and —
// when a persistent store is attached (SetStore, wired from the CLI's
// -study-cache) — published through memo.PersistDo under a canonical key, so
// shard workers and warm processes load the encoded rows instead of
// re-simulating the hierarchy. Generation is deterministic, so the persisted
// value is byte-stable across processes.
//
// Invalidation. A stream is immutable once built; the key carries every
// input that determines its content (seed, geometry params, boundary count,
// length, app), so there is nothing to invalidate in place — a new budget or
// geometry is simply a new key. Reset drops the in-process memo (the
// determinism tests use it); the persistent tier is content-addressed and
// never stale.
package classify

import (
	"fmt"
	"sync/atomic"
	"time"

	"capsim/internal/cache"
	"capsim/internal/memo"
	"capsim/internal/obs"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// Telemetry: stream generations and replays, plus the tier's resident
// footprint (encoded bytes across all memoized streams) against the flat
// one-byte-per-class equivalent. All of them are obs-gated.
var (
	obsGens    = obs.NewCounter("classify.gens")    // streams generated (hierarchy passes)
	obsReplays = obs.NewCounter("classify.replays") // cursors opened over a stream
	obsGenNS   = obs.NewHistogram("classify.gen_ns")
	obsBytes   = obs.NewGauge("classify.bytes")     // encoded bytes resident
	obsRawGag  = obs.NewGauge("classify.raw_bytes") // flat equivalent
)

// Stream is one materialized classification family: for boundaries
// 1..MaxB, the outcome class of each of the first NRefs references of one
// (benchmark, seed, geometry) stream. Fields are exported for gob (the
// persistent tier); treat them as read-only.
type Stream struct {
	MaxB  int
	NRefs int64
	Rows  [][]byte // Rows[k-1]: boundary k's RLE+varint class stream
}

// Bytes returns the encoded size of all rows.
func (s *Stream) Bytes() int64 {
	var n int64
	for _, r := range s.Rows {
		n += int64(len(r))
	}
	return n
}

// RawBytes returns the flat one-byte-per-class equivalent.
func (s *Stream) RawBytes() int64 { return s.NRefs * int64(s.MaxB) }

// Cursor returns a replay cursor over boundary k's row (1-based, like
// cache.BoundaryStats). Cursors are independent and cheap; opening one
// counts as a replay.
func (s *Stream) Cursor(k int) *Cursor {
	if k < 1 || k > s.MaxB {
		panic(fmt.Sprintf("classify: boundary %d outside [1,%d]", k, s.MaxB))
	}
	obsReplays.Inc1()
	return &Cursor{row: s.Rows[k-1], limit: s.NRefs}
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
		v, off := uvarintAt(c.row, c.off)
		c.off = off
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
		e.buf = appendUvarint(e.buf, uint64(e.run)<<2|uint64(e.cls&3))
	}
	e.run = 0
}

// appendUvarint and uvarintAt mirror the trace tier's LEB128 codec (the
// helpers are unexported there; the five lines are cheaper than an export).
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func uvarintAt(b []byte, off int) (uint64, int) {
	c := b[off]
	if c < 0x80 {
		return uint64(c), off + 1
	}
	v := uint64(c & 0x7f)
	s := uint(7)
	for {
		off++
		c = b[off]
		if c < 0x80 {
			return v | uint64(c)<<s, off + 1
		}
		v |= uint64(c&0x7f) << s
		s += 7
	}
}

// store is the optional persistent tier, shared with the study-row store
// (experiments.SetStudyCacheDir wires both to the same directory).
var store atomic.Pointer[memo.Store]

// SetStore attaches a persistent content-addressed store; nil detaches.
func SetStore(s *memo.Store) { store.Store(s) }

// streams is the in-process singleflight memo over stream keys.
var streams memo.Memo[string, *Stream]

// Reset discards the in-process memoized streams (the persistent tier, if
// any, is untouched). The determinism tests call it between passes.
func Reset() {
	streams.Reset()
	obsBytes.Set(0)
	obsRawGag.Set(0)
}

// Key returns the canonical stream key — exactly the content-determining
// inputs, same discipline as the study-row keys.
func Key(b workload.Benchmark, seed uint64, p cache.Params, maxB int, nrefs int64) string {
	return fmt.Sprintf("classify|v1|seed=%d|maxB=%d|nrefs=%d|p=%+v|app=%s", seed, maxB, nrefs, p, b.Name)
}

// StreamFor returns the classification stream for the first nrefs references
// of (b, seed) under geometry p, boundaries 1..maxB — generating it with one
// MultiHierarchy pass on first use, loading it from the persistent tier when
// attached and warm, and sharing one in-process copy among all consumers.
func StreamFor(b workload.Benchmark, seed uint64, p cache.Params, maxB int, nrefs int64) (*Stream, error) {
	key := Key(b, seed, p, maxB, nrefs)
	return streams.Do(key, func() (*Stream, error) {
		s, err := memo.PersistDo(store.Load(), key, func() (*Stream, error) {
			return generate(b, seed, p, maxB, nrefs)
		})
		if err != nil {
			return nil, err
		}
		obsBytes.Add(s.Bytes())
		obsRawGag.Add(s.RawBytes())
		return s, nil
	})
}

// generate runs the one hierarchy pass: every reference decodes once from
// the shared trace tier and classifies at every boundary in lockstep
// (cache.AccessClasses), appending to the per-boundary RLE encoders.
func generate(b workload.Benchmark, seed uint64, p cache.Params, maxB int, nrefs int64) (*Stream, error) {
	as := obs.StartAsync("classify", "gen:"+b.Name)
	defer as.End(obs.Arg{K: "maxB", V: maxB}, obs.Arg{K: "nrefs", V: nrefs})
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
	t0 := time.Now()
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
	obsGens.Inc1()
	obsGenNS.Observe(time.Since(t0).Nanoseconds())
	return &Stream{MaxB: maxB, NRefs: nrefs, Rows: rows}, nil
}

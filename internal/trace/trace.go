// Package trace is the shared materialized-trace infrastructure behind the
// one-pass multi-configuration profiling path.
//
// The paper's configuration manager needs per-application profiles of every
// boundary/queue configuration, and every profile cell replays the *same*
// deterministic reference stream: all cells for one (benchmark, seed) derive
// their randomness from rng.DeriveSeed(seed, name+"/purpose") regardless of
// the configuration under test. Re-generating that stream per cell — eight
// times per application for the cache study, eight more for the queue study —
// is pure waste. This package materializes each stream once, behind
// internal/memo singleflight, into an append-only chunked store that every
// sweep worker shares read-only through cheap replay cursors:
//
//   - RefStore: the data-reference stream as compressed chunks (a raw write
//     bitset plus zigzag-delta varint addresses; see codec.go);
//   - OpStore: the dynamic instruction stream as zigzag-varint packed
//     workload.Instr chunks.
//
// The cache side reads a RefStore through Decoded, its (set, tag) view for
// one cache geometry. Every boundary position shares the set mapping by the
// paper's constant-index rule, and the pair is a shift and mask of the
// address, so the view stores nothing: its cursor decodes each reference in
// place from the RefStore chunk.
//
// Both stores share one chunk list (chunkList): a cursor that runs past the
// materialized prefix extends the store by whole chunks under the list's
// lock, then publishes the new chunk list atomically. Published chunks are
// immutable, so readers never synchronize with each other; replay is
// bit-identical to running the generator directly, at any worker count.
//
// # Lifecycle contract
//
// A store lives as long as its memo entry or any cursor over it. Reset, and
// the LRU cap SetStoreCap imposes, only drop memo entries, and both are safe
// at any time, including while cursors are mid-replay on other goroutines:
// cursors keep direct store pointers, the orphaned store still extends
// itself under its own lock and its published chunks are immutable, so the
// replayed sequence is unchanged. The next *For call builds a fresh store
// that generates the identical stream. The orphan is garbage once the last
// cursor drops it. TestEnabledResetRace exercises this against concurrent
// replay under the race detector.
package trace

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"capsim/internal/memo"
	"capsim/internal/obs"
	"capsim/internal/workload"
)

// Telemetry (internal/obs). Materialization happens under each store's lock
// at chunk granularity, so one counter add per ChunkLen (32768) references is
// far off the replay hot path; cursors themselves are untouched. Every
// counter is cumulative: the byte counters total bytes materialized, not
// bytes held.
var (
	obsRefChunks = obs.NewCounter("trace.ref_chunks") // reference chunks materialized
	obsOpChunks  = obs.NewCounter("trace.op_chunks")  // instruction chunks materialized
	obsBytes     = obs.NewCounter("trace.bytes")      // bytes of store data materialized (compressed)
	obsBytesRaw  = obs.NewCounter("trace.bytes_raw")  // same data in the flat pre-compression layout
)

// ChunkLen is the number of references (or instructions) per store chunk.
// Chunks are generated whole before being published, so ChunkLen bounds both
// the generation batch and the over-materialization past the furthest cursor.
const ChunkLen = 1 << 15

// Nominal per-chunk sizes of the flat structure-of-arrays layout this
// package's compressed chunks replace: the denominator of the compression
// ratio and the basis of trace.bytes_raw.
const (
	rawRefChunkBytes = ChunkLen*8 + ChunkLen/8                           // addrs + write bitset
	rawOpChunkBytes  = ChunkLen * int64(unsafe.Sizeof(workload.Instr{})) // packed Instr array
)

// countChunk records one materialized chunk: n counts it, and the byte
// counters add its compressed footprint and its flat-layout size.
func countChunk(n *obs.Counter, bytes, raw int64) {
	n.Inc()
	obsBytes.Add(bytes)
	obsBytesRaw.Add(raw)
}

// --- chunk list -----------------------------------------------------------

// chunkList is the append-only chunk storage every store embeds. fill
// builds chunk ci, always in index order and under mu, so it may advance
// generator state guarded by mu; the grown list is then published by
// swapping the chunks pointer, and a published chunk is never mutated.
type chunkList[C any] struct {
	mu     sync.Mutex
	fill   func(ci int64) *C
	chunks atomic.Pointer[[]*C]
}

// Len returns the number of materialized items.
func (l *chunkList[C]) Len() int64 {
	if cs := l.chunks.Load(); cs != nil {
		return int64(len(*cs)) * ChunkLen
	}
	return 0
}

// at returns the ci-th chunk, materializing it and its predecessors if
// necessary.
func (l *chunkList[C]) at(ci int64) *C {
	if cs := l.chunks.Load(); cs != nil && ci < int64(len(*cs)) {
		return (*cs)[ci]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var cur []*C
	if cs := l.chunks.Load(); cs != nil {
		cur = *cs
	}
	for int64(len(cur)) <= ci {
		// Appending in place is safe: a reader of an older list never
		// indexes past that list's length.
		next := append(cur, l.fill(int64(len(cur))))
		l.chunks.Store(&next)
		cur = next
	}
	return cur[ci]
}

// --- store keys -----------------------------------------------------------

// storeKey identifies one materialized stream: the content key (memo.Key)
// of the generator's whole input — the profile it reads, the benchmark's
// name (which seeds the rng stream) and the seed. A same-name copy with one
// changed field is a different stream; the profile's pointer identity is
// never part of the key.
func storeKey(profile any, name string, seed uint64) string {
	k, ok := memo.Key(profile, name, seed)
	if !ok {
		panic("trace: workload profile has no content key")
	}
	return k
}

var (
	refStores memo.Memo[string, *RefStore]
	opStores  memo.Memo[string, *OpStore]
)

// Reset discards every memoized store (reference and instruction), so
// future *For calls build fresh ones; the determinism tests call it
// between passes so each pass re-materializes from scratch. Safe while
// cursors are mid-replay (see the lifecycle contract in the package comment).
func Reset() {
	refStores.Reset()
	opStores.Reset()
}

// SetStoreCap bounds each store memo (reference, instruction) to at most n
// entries with deterministic LRU eviction (memo.SetCap); n <= 0
// restores the unbounded default. An evicted store is orphaned exactly as by
// Reset. The long-lived API server sets it (experiments.SetStudyCacheCap) so
// requests at ever-new seeds cannot grow the process without bound.
func SetStoreCap(n int) {
	refStores.SetCap(n)
	opStores.SetCap(n)
}

// StoreCounts reports how many reference and instruction stores are
// currently memoized (diagnostics and tests).
func StoreCounts() (refs, ops int) {
	return refStores.Len(), opStores.Len()
}

// --- reference store ------------------------------------------------------

// refChunk is one immutable span of ChunkLen references: a raw write bitset
// plus zigzag-delta varint addresses. The delta chain restarts at zero per
// chunk, so chunks decode independently.
type refChunk struct {
	writes [ChunkLen / 64]uint64
	enc    []byte
}

// RefStore is an append-only materialized data-reference stream. One exists
// per (benchmark, seed); every sweep worker replays it through private
// cursors.
type RefStore struct {
	chunkList[refChunk]
	gen     *workload.AddressTrace // guarded by mu
	scratch []byte                 // encode buffer, guarded by mu
}

// RefsFor returns the shared reference store for (b, seed), creating it
// (empty) on first use with singleflight semantics.
func RefsFor(b workload.Benchmark, seed uint64) *RefStore {
	if b.Mem == nil {
		panic("trace: " + b.Name + " has no memory profile")
	}
	return refStores.Get(storeKey(*b.Mem, b.Name, seed), func() *RefStore {
		s := &RefStore{gen: workload.NewAddressTrace(b, seed)}
		s.fill = s.encode
		return s
	})
}

// encode generates the next ChunkLen references and compresses them into a
// chunk (the store's fill).
func (s *RefStore) encode(int64) *refChunk {
	c := new(refChunk)
	enc := s.scratch[:0]
	var prev uint64
	for i := 0; i < ChunkLen; i++ {
		r := s.gen.Next()
		enc = appendUvarint(enc, zigzag(int64(r.Addr-prev)))
		prev = r.Addr
		if r.Write {
			c.writes[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	s.scratch = enc // keep the grown capacity for the next chunk
	c.enc = append(make([]byte, 0, len(enc)), enc...)
	countChunk(obsRefChunks, int64(unsafe.Sizeof(*c))+int64(len(c.enc)), rawRefChunkBytes)
	return c
}

// Cursor returns a replay cursor positioned at the start of the stream. The
// cursor is not safe for concurrent use; each goroutine takes its own.
func (s *RefStore) Cursor() *RefCursor { return &RefCursor{refPos{s: s, idx: ChunkLen}} }

// refPos is a read position in a RefStore, shared by RefCursor and
// DecodedCursor.
type refPos struct {
	s    *RefStore
	ci   int64 // index of the NEXT chunk to load
	idx  int   // position within the current chunk; ChunkLen forces a load
	off  int   // byte offset into c.enc of the next address
	prev uint64
	c    *refChunk
}

// load moves to the next chunk, materializing it if necessary.
func (p *refPos) load() {
	p.c = p.s.at(p.ci)
	p.ci++
	p.idx = 0
	p.off = 0
	p.prev = 0
}

// RefCursor replays a RefStore from the beginning, extending the store on
// demand. It implements workload.RefSource, so a simulator cannot tell it
// from the live generator.
type RefCursor struct {
	refPos
}

// Next returns the next reference in the stream.
func (c *RefCursor) Next() workload.Ref {
	if c.idx == ChunkLen {
		c.load()
	}
	i := c.idx
	c.idx++
	u, off := uvarintAt(c.c.enc, c.off)
	c.off = off
	c.prev += uint64(unzigzag(u))
	return workload.Ref{
		Addr:  c.prev,
		Write: c.c.writes[i>>6]>>(uint(i)&63)&1 == 1,
	}
}

// --- instruction store ----------------------------------------------------

// opChunk is one immutable span of ChunkLen instructions, each encoded as
// three zigzag varints (src0, src1, latency).
type opChunk struct {
	enc []byte
}

// OpStore is an append-only materialized instruction stream, the queue-side
// counterpart of RefStore.
type OpStore struct {
	chunkList[opChunk]
	gen     *workload.InstrStream // guarded by mu
	scratch []byte                // encode buffer, guarded by mu
}

// OpsFor returns the shared instruction store for (b, seed), creating it on
// first use with singleflight semantics.
func OpsFor(b workload.Benchmark, seed uint64) *OpStore {
	return opStores.Get(storeKey(b.ILP, b.Name, seed), func() *OpStore {
		s := &OpStore{gen: workload.NewInstrStream(b, seed)}
		s.fill = s.encode
		return s
	})
}

// encode generates the next ChunkLen instructions and packs them into a
// chunk (the store's fill).
func (s *OpStore) encode(int64) *opChunk {
	c := new(opChunk)
	enc := s.scratch[:0]
	for i := 0; i < ChunkLen; i++ {
		in := s.gen.Next()
		enc = appendUvarint(enc, zigzag(int64(in.Src[0])))
		enc = appendUvarint(enc, zigzag(int64(in.Src[1])))
		enc = appendUvarint(enc, zigzag(int64(in.Latency)))
	}
	s.scratch = enc
	c.enc = append(make([]byte, 0, len(enc)), enc...)
	countChunk(obsOpChunks, int64(unsafe.Sizeof(*c))+int64(len(c.enc)), rawOpChunkBytes)
	return c
}

// Cursor returns a replay cursor positioned at the start of the stream.
func (s *OpStore) Cursor() *OpCursor { return &OpCursor{s: s, idx: ChunkLen} }

// OpCursor replays an OpStore from the beginning. It implements
// workload.InstrSource.
type OpCursor struct {
	s   *OpStore
	ci  int64
	idx int
	off int
	c   *opChunk
}

// Next returns the next instruction in the stream.
func (c *OpCursor) Next() workload.Instr {
	if c.idx == ChunkLen {
		c.c = c.s.at(c.ci)
		c.ci++
		c.idx = 0
		c.off = 0
	}
	c.idx++
	enc := c.c.enc
	u0, off := uvarintAt(enc, c.off)
	u1, off := uvarintAt(enc, off)
	u2, off := uvarintAt(enc, off)
	c.off = off
	return workload.Instr{
		Src:     [2]int32{int32(unzigzag(u0)), int32(unzigzag(u1))},
		Latency: int8(unzigzag(u2)),
	}
}

// CopyNext decodes the next min(len(dst), remaining-in-chunk) instructions
// into dst and returns how many it wrote (always ≥ 1 for non-empty dst). It
// is Next batched: identical sequence, but the per-instruction loop stays
// inside one chunk with the encode buffer held in locals, which is what the
// shared-buffer refill in ooo.MultiCore wants (it discovers this method by
// type assertion).
func (c *OpCursor) CopyNext(dst []workload.Instr) int {
	if len(dst) == 0 {
		return 0
	}
	if c.idx == ChunkLen {
		c.c = c.s.at(c.ci)
		c.ci++
		c.idx = 0
		c.off = 0
	}
	n := ChunkLen - c.idx
	if n > len(dst) {
		n = len(dst)
	}
	enc, off := c.c.enc, c.off
	for i := 0; i < n; i++ {
		u0, o := uvarintAt(enc, off)
		u1, o := uvarintAt(enc, o)
		u2, o := uvarintAt(enc, o)
		off = o
		dst[i] = workload.Instr{
			Src:     [2]int32{int32(unzigzag(u0)), int32(unzigzag(u1))},
			Latency: int8(unzigzag(u2)),
		}
	}
	c.off = off
	c.idx += n
	return n
}

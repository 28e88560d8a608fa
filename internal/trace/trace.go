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
//     workload.Instr chunks;
//   - DecodedStore: the (set, tag) decomposition of a RefStore for one cache
//     geometry, memoized per (store, geometry) so every boundary position —
//     which shares the set mapping by the paper's constant-index rule —
//     decodes each reference exactly once, stored as zigzag-delta varints.
//
// Stores grow lazily: a cursor that runs past the materialized prefix
// extends the store by whole chunks under the store's lock, then publishes
// the new chunk list atomically. Published chunks are immutable, so readers
// never synchronize with each other; replay is bit-identical to running the
// generator directly, at any worker count. Total live bytes are tracked per
// store and can be capped with SetBudget (see budget.go): over budget, cold
// stores are evicted and transparently regenerate on their next touch.
//
// # Lifecycle contract
//
// Reset and SetBudget are coarse process-wide operations and are safe at any
// time, including while cursors are mid-replay on other goroutines:
//
//   - Reset discards the memo tables and the eviction registry, so future
//     *For calls build fresh stores. Cursors mid-replay keep direct store
//     pointers and are unaffected: the orphaned store still extends itself
//     under its own lock and its published chunks are immutable, so the
//     replayed sequence is unchanged. The orphan is garbage once the last
//     cursor drops it.
//   - Budget eviction (budget.go) resets a store's chunk storage in place;
//     cursors mid-replay regenerate the identical chunks on their next
//     chunk-boundary load.
//
// TestEnabledResetRace exercises both against concurrent replay under the
// race detector.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"capsim/internal/memo"
	"capsim/internal/obs"
	"capsim/internal/workload"
)

// Telemetry (internal/obs). Materialization happens under each store's lock
// at chunk granularity, so one counter add per ChunkLen (32768) references is
// far off the replay hot path; cursors themselves are untouched. The byte
// counters track LIVE bytes: evictions and Reset subtract what they free.
var (
	obsRefChunks = obs.NewCounter("trace.ref_chunks")    // reference chunks materialized
	obsOpChunks  = obs.NewCounter("trace.op_chunks")     // instruction chunks materialized
	obsDecChunks = obs.NewCounter("trace.dec_chunks")    // decoded chunks materialized
	obsBytes     = obs.NewCounter("trace.bytes")         // live bytes of store data (compressed)
	obsBytesRaw  = obs.NewCounter("trace.bytes_raw")     // same data in the flat pre-compression layout
	obsGenNS     = obs.NewHistogram("trace.gen_ns")      // per-chunk generation wall time
	obsStores    = obs.NewGauge("trace.stores_current")  // live stores after the last ensure
	obsResets    = obs.NewCounter("trace.stores_resets") // Reset invocations
)

// publishStoreGauge refreshes the live-store gauge; called after any store
// creation or Reset, both of which are rare and off the hot path.
func publishStoreGauge() {
	if !obs.Enabled() {
		return
	}
	r, o, d := StoreCounts()
	obsStores.Set(int64(r + o + d))
}

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
	rawDecChunkBytes = ChunkLen*4 + ChunkLen*8                           // sets + tags
)

// --- store keys -----------------------------------------------------------

// refKey identifies one materialized reference stream. The memory profile's
// pointer identity plus the name (which seeds the rng stream) and seed
// describe the generated stream completely: workload's registry hands out
// benchmark values sharing one canonical *MemProfile per application, and a
// test-constructed profile has its own pointer.
type refKey struct {
	mem  *workload.MemProfile
	name string
	seed uint64
}

// opKey identifies one materialized instruction stream. ILPProfile contains
// slices and so cannot key a map directly; fingerprint renders it to a
// deterministic value string.
type opKey struct {
	name        string
	seed        uint64
	fingerprint string
}

// ilpFingerprint renders an ILP profile as a value string (dereferencing Alt
// so the key never depends on pointer identity).
func ilpFingerprint(p workload.ILPProfile) string {
	alt := "-"
	if p.Alt != nil {
		alt = fmt.Sprintf("%+v", *p.Alt)
	}
	return fmt.Sprintf("%+v|%s|%d|%d|%d", p.Base, alt, p.Kind, p.PeriodInstrs, p.SuperPeriodInstrs)
}

var (
	refStores memo.Memo[refKey, *RefStore]
	opStores  memo.Memo[opKey, *OpStore]
	decStores memo.Memo[decKey, *DecodedStore]
)

// Reset discards every memoized store (reference, instruction and decoded)
// and the eviction registry. Long-lived processes can call it to bound
// memory; the determinism tests call it between passes so each pass
// re-materializes from scratch. Safe while cursors are mid-replay (see the
// lifecycle contract in the package comment).
func Reset() {
	obsBytes.Add1(-TotalBytes())
	obsBytesRaw.Add1(-TotalRawBytes())
	refStores.Reset()
	opStores.Reset()
	decStores.Reset()
	clearRegistry()
	obsResets.Inc1()
	publishStoreGauge()
}

// StoreCounts reports how many reference, instruction and decoded stores are
// currently memoized (diagnostics and tests).
func StoreCounts() (refs, ops, decoded int) {
	return refStores.Len(), opStores.Len(), decStores.Len()
}

// --- reference store ------------------------------------------------------

// refChunk is one immutable span of ChunkLen references: a raw write bitset
// (read directly by DecodedCursor too) plus zigzag-delta varint addresses.
// The delta chain restarts at zero per chunk, so chunks decode independently.
type refChunk struct {
	writes [ChunkLen / 64]uint64
	enc    []byte
}

// refChunkBytes is the chunk's live footprint.
func refChunkBytes(c *refChunk) int64 {
	return int64(unsafe.Sizeof(*c)) + int64(len(c.enc))
}

// RefStore is an append-only materialized data-reference stream. One exists
// per (benchmark, seed); every sweep worker replays it through private
// cursors. Chunks are generated whole under mu, published by swapping the
// chunk-list pointer, and never mutated afterwards.
type RefStore struct {
	mu      sync.Mutex
	gen     *workload.AddressTrace        // guarded by mu
	newGen  func() *workload.AddressTrace // rebuilds gen after eviction
	scratch []byte                        // encode buffer, guarded by mu
	chunks  atomic.Pointer[[]*refChunk]

	bytes atomic.Int64  // live compressed bytes
	use   atomic.Uint64 // LRU recency stamp (cursor-facing loads)
}

// RefsFor returns the shared reference store for (b, seed), creating it
// (empty) on first use with singleflight semantics.
func RefsFor(b workload.Benchmark, seed uint64) *RefStore {
	if b.Mem == nil {
		panic("trace: " + b.Name + " has no memory profile")
	}
	return refStores.Get(refKey{b.Mem, b.Name, seed}, func() *RefStore {
		defer publishStoreGauge()
		newGen := func() *workload.AddressTrace { return workload.NewAddressTrace(b, seed) }
		s := &RefStore{gen: newGen(), newGen: newGen}
		registerStore(s)
		return s
	})
}

// Len returns the number of materialized references.
func (s *RefStore) Len() int64 {
	if cs := s.chunks.Load(); cs != nil {
		return int64(len(*cs)) * ChunkLen
	}
	return 0
}

// ensure materializes chunks until at least n references exist.
func (s *RefStore) ensure(n int64) {
	if s.Len() >= n {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var cur []*refChunk
	if cs := s.chunks.Load(); cs != nil {
		cur = *cs
	}
	for int64(len(cur))*ChunkLen < n {
		t0 := time.Now()
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
		next := make([]*refChunk, len(cur)+1)
		copy(next, cur)
		next[len(cur)] = c
		cur = next
		s.chunks.Store(&next)
		s.bytes.Add(refChunkBytes(c))
		obsRefChunks.Inc1()
		obsBytes.Add1(refChunkBytes(c))
		obsBytesRaw.Add1(rawRefChunkBytes)
		obsGenNS.Observe(time.Since(t0).Nanoseconds())
	}
}

// chunk returns the ci-th chunk, materializing it (and its predecessors) if
// necessary. Internal accessor: no budget bookkeeping (DecodedStore.ensure
// calls it while holding its own lock).
func (s *RefStore) chunk(ci int64) *refChunk {
	cs := s.chunks.Load()
	if cs == nil || ci >= int64(len(*cs)) {
		s.ensure((ci + 1) * ChunkLen)
		cs = s.chunks.Load()
	}
	return (*cs)[ci]
}

// cursorChunk is the cursor-facing chunk load: it stamps the store's recency
// and enforces the byte budget. Callers hold no store lock here.
func (s *RefStore) cursorChunk(ci int64) *refChunk {
	c := s.chunk(ci)
	s.use.Store(touchStamp())
	enforceBudget(s)
	return c
}

// evictable implementation (budget.go). evict drops the chunk storage and
// rewinds the generator; the store regenerates identically on next use.
func (s *RefStore) liveBytes() int64    { return s.bytes.Load() }
func (s *RefStore) nominalBytes() int64 { return s.Len() / ChunkLen * rawRefChunkBytes }
func (s *RefStore) lastUse() uint64     { return s.use.Load() }
func (s *RefStore) evict() {
	s.mu.Lock()
	defer s.mu.Unlock()
	obsBytes.Add1(-s.bytes.Load())
	obsBytesRaw.Add1(-s.nominalBytes())
	s.chunks.Store(nil)
	s.gen = s.newGen()
	s.bytes.Store(0)
}

// Cursor returns a replay cursor positioned at the start of the stream. The
// cursor is not safe for concurrent use; each goroutine takes its own.
func (s *RefStore) Cursor() *RefCursor { return &RefCursor{s: s, idx: ChunkLen} }

// RefCursor replays a RefStore from the beginning, extending the store on
// demand. It implements workload.RefSource, so a simulator cannot tell it
// from the live generator.
type RefCursor struct {
	s    *RefStore
	ci   int64 // index of the NEXT chunk to load
	idx  int   // position within the current chunk; ChunkLen forces a load
	off  int   // byte offset into c.enc of the next address
	prev uint64
	c    *refChunk
}

// Next returns the next reference in the stream.
func (c *RefCursor) Next() workload.Ref {
	if c.idx == ChunkLen {
		c.c = c.s.cursorChunk(c.ci)
		c.ci++
		c.idx = 0
		c.off = 0
		c.prev = 0
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

// opChunkBytes is the chunk's live footprint.
func opChunkBytes(c *opChunk) int64 {
	return int64(unsafe.Sizeof(*c)) + int64(len(c.enc))
}

// OpStore is an append-only materialized instruction stream, the queue-side
// counterpart of RefStore.
type OpStore struct {
	mu      sync.Mutex
	gen     *workload.InstrStream        // guarded by mu
	newGen  func() *workload.InstrStream // rebuilds gen after eviction
	scratch []byte                       // encode buffer, guarded by mu
	chunks  atomic.Pointer[[]*opChunk]

	bytes atomic.Int64
	use   atomic.Uint64
}

// OpsFor returns the shared instruction store for (b, seed), creating it on
// first use with singleflight semantics.
func OpsFor(b workload.Benchmark, seed uint64) *OpStore {
	return opStores.Get(opKey{b.Name, seed, ilpFingerprint(b.ILP)}, func() *OpStore {
		defer publishStoreGauge()
		newGen := func() *workload.InstrStream { return workload.NewInstrStream(b, seed) }
		s := &OpStore{gen: newGen(), newGen: newGen}
		registerStore(s)
		return s
	})
}

// Len returns the number of materialized instructions.
func (s *OpStore) Len() int64 {
	if cs := s.chunks.Load(); cs != nil {
		return int64(len(*cs)) * ChunkLen
	}
	return 0
}

// ensure materializes chunks until at least n instructions exist.
func (s *OpStore) ensure(n int64) {
	if s.Len() >= n {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var cur []*opChunk
	if cs := s.chunks.Load(); cs != nil {
		cur = *cs
	}
	for int64(len(cur))*ChunkLen < n {
		t0 := time.Now()
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
		next := make([]*opChunk, len(cur)+1)
		copy(next, cur)
		next[len(cur)] = c
		cur = next
		s.chunks.Store(&next)
		s.bytes.Add(opChunkBytes(c))
		obsOpChunks.Inc1()
		obsBytes.Add1(opChunkBytes(c))
		obsBytesRaw.Add1(rawOpChunkBytes)
		obsGenNS.Observe(time.Since(t0).Nanoseconds())
	}
}

// chunk returns the ci-th chunk, materializing as needed (internal, no
// budget bookkeeping).
func (s *OpStore) chunk(ci int64) *opChunk {
	cs := s.chunks.Load()
	if cs == nil || ci >= int64(len(*cs)) {
		s.ensure((ci + 1) * ChunkLen)
		cs = s.chunks.Load()
	}
	return (*cs)[ci]
}

// cursorChunk is the cursor-facing chunk load (recency stamp + budget).
func (s *OpStore) cursorChunk(ci int64) *opChunk {
	c := s.chunk(ci)
	s.use.Store(touchStamp())
	enforceBudget(s)
	return c
}

// evictable implementation (budget.go).
func (s *OpStore) liveBytes() int64    { return s.bytes.Load() }
func (s *OpStore) nominalBytes() int64 { return s.Len() / ChunkLen * rawOpChunkBytes }
func (s *OpStore) lastUse() uint64     { return s.use.Load() }
func (s *OpStore) evict() {
	s.mu.Lock()
	defer s.mu.Unlock()
	obsBytes.Add1(-s.bytes.Load())
	obsBytesRaw.Add1(-s.nominalBytes())
	s.chunks.Store(nil)
	s.gen = s.newGen()
	s.bytes.Store(0)
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
		c.c = c.s.cursorChunk(c.ci)
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
		c.c = c.s.cursorChunk(c.ci)
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

// Package trace is the stream tier behind the one-pass multi-configuration
// profiling path.
//
// The paper's configuration manager needs per-application profiles of every
// boundary/queue configuration, and every profile cell replays the *same*
// deterministic stream: all cells for one (benchmark, seed) derive their
// randomness from rng.DeriveSeed(seed, name+"/purpose") regardless of the
// configuration under test. The two streams are served differently, each
// the way a measurement found cheaper:
//
//   - RefStore: the data-reference stream, generated where it is read. Each
//     cursor owns a private workload.AddressTrace and refills a genBlock
//     buffer from it with Fill. Nothing is materialized or shared: a
//     reference costs little more to generate than a stored one costs to
//     decode, and storing one costs a generate, an encode and a shared lock.
//   - OpStore: the dynamic instruction stream, materialized once per
//     (benchmark, seed) behind internal/memo singleflight into an append-only
//     list of zigzag-varint packed workload.Instr chunks that every sweep
//     worker replays read-only through cheap cursors. An instruction costs
//     several times a reference to generate, and each chunk is replayed
//     about twice per generation.
//
// The cache side reads a RefStore through Decoded, its (set, tag) view for
// one cache geometry. Every boundary position shares the set mapping by the
// paper's constant-index rule, and the pair is a shift and mask of the
// address, so the view stores nothing: its cursor decodes each reference in
// place as it is generated.
//
// A cursor that runs past the OpStore's materialized prefix extends it by
// whole chunks under the store's lock, then publishes the new chunk list
// atomically. Published chunks are immutable, so readers never synchronize
// with each other; replay is bit-identical to running the generator
// directly, at any worker count.
//
// # Lifecycle contract
//
// An OpStore lives as long as its memo entry or any cursor over it. Reset,
// and the LRU cap SetStoreCap imposes, only drop memo entries, and both are
// safe at any time, including while cursors are mid-replay on other
// goroutines: cursors keep direct store pointers, the orphaned store still
// extends itself under its own lock and its published chunks are immutable,
// so the replayed sequence is unchanged. The next OpsFor call builds a fresh
// store that generates the identical stream. The orphan is garbage once the
// last cursor drops it. TestEnabledResetRace exercises this against
// concurrent replay under the race detector.
package trace

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"unsafe"

	"capsim/internal/memo"
	"capsim/internal/obs"
	"capsim/internal/workload"
)

// Telemetry (internal/obs). Materialization happens under the store's lock
// at chunk granularity, so one counter add per ChunkLen (32768) instructions
// is far off the replay hot path; cursors themselves are untouched. Every
// counter is cumulative: the byte counters total bytes materialized, not
// bytes held.
var (
	obsOpChunks = obs.NewCounter("trace.op_chunks") // instruction chunks materialized
	obsBytes    = obs.NewCounter("trace.bytes")     // bytes of store data materialized (compressed)
	obsBytesRaw = obs.NewCounter("trace.bytes_raw") // same data in the flat pre-compression layout
)

// ChunkLen is the number of instructions per store chunk. Chunks are
// generated whole before being published, so ChunkLen bounds both the
// generation batch and the over-materialization past the furthest cursor.
const ChunkLen = 1 << 15

// rawOpChunkBytes is the nominal size of one chunk in the flat packed Instr
// layout the compressed chunks replace: the denominator of the compression
// ratio and the basis of trace.bytes_raw.
const rawOpChunkBytes = ChunkLen * int64(unsafe.Sizeof(workload.Instr{}))

// genBlock is the number of items drawn from a generator per Fill. The
// generator holds its state in registers across a Fill, so one state load
// and store per block is noise; the block bounds what a reference cursor or
// the encoder holds besides its own state.
const genBlock = 1 << 10

var opStores memo.Memo[string, *OpStore]

// Reset discards every memoized instruction store, so future OpsFor calls
// build fresh ones; the determinism tests call it between passes so each
// pass re-materializes from scratch. Safe while cursors are mid-replay (see
// the lifecycle contract in the package comment).
func Reset() { opStores.Reset() }

// SetStoreCap bounds the instruction-store memo to at most n entries with
// deterministic LRU eviction (memo.SetCap); n <= 0 restores the unbounded
// default. An evicted store is orphaned exactly as by Reset. The long-lived
// API server sets it (experiments.SetStudyCacheCap) so requests at ever-new
// seeds cannot grow the process without bound.
func SetStoreCap(n int) { opStores.SetCap(n) }

// StoreCounts reports how many instruction stores are currently memoized
// (diagnostics and tests).
func StoreCounts() int { return opStores.Len() }

// --- reference stream -----------------------------------------------------

// RefStore names one (benchmark, seed) data-reference stream. It holds no
// references: every cursor generates the stream afresh.
type RefStore struct {
	b    workload.Benchmark
	seed uint64
}

// RefsFor returns the reference stream of (b, seed). It panics if b has no
// memory profile.
func RefsFor(b workload.Benchmark, seed uint64) *RefStore {
	if b.Mem == nil {
		panic("trace: " + b.Name + " has no memory profile")
	}
	return &RefStore{b: b, seed: seed}
}

// Len returns how many references the store holds materialized: always 0,
// since cursors generate them.
func (s *RefStore) Len() int64 { return 0 }

// Cursor returns a cursor positioned at the start of the stream, with its
// own generator. The cursor is not safe for concurrent use; each goroutine
// takes its own.
func (s *RefStore) Cursor() *RefCursor { return &RefCursor{s.pos()} }

// pos returns a fresh read position over the stream.
func (s *RefStore) pos() refPos {
	return refPos{gen: workload.NewAddressTrace(s.b, s.seed), i: genBlock}
}

// refPos is a read position in a reference stream, shared by RefCursor and
// DecodedCursor: a private generator and the block it last filled.
type refPos struct {
	gen *workload.AddressTrace
	i   int // position in buf of the next reference; genBlock forces a refill
	buf [genBlock]workload.Ref
}

// refill generates the next block of references.
func (p *refPos) refill() {
	p.gen.Fill(p.buf[:0], genBlock)
	p.i = 0
}

// RefCursor yields a reference stream from its private generator. It
// implements workload.RefSource.
type RefCursor struct {
	refPos
}

// Next returns the next reference in the stream.
func (c *RefCursor) Next() workload.Ref {
	if c.i == genBlock {
		c.refill()
	}
	r := c.buf[c.i]
	c.i++
	return r
}

// --- instruction store ----------------------------------------------------

// opChunk is one immutable span of ChunkLen instructions, each encoded as
// three zigzag varints (src0, src1, latency).
type opChunk struct {
	enc []byte
}

// OpStore is an append-only materialized instruction stream. One exists per
// (benchmark, seed); every sweep worker replays it through private cursors.
// encode builds chunk ci, always in index order and under mu, so it may
// advance gen; the grown list is then published by swapping the chunks
// pointer, and a published chunk is never mutated.
type OpStore struct {
	mu      sync.Mutex
	gen     *workload.InstrStream // guarded by mu
	scratch []byte                // encode buffer, guarded by mu
	chunks  atomic.Pointer[[]*opChunk]
}

// OpsFor returns the shared instruction store for (b, seed), creating it on
// first use with singleflight semantics. The key is the content key
// (memo.Key) of the generator's whole input — the ILP profile, the
// benchmark's name (which seeds the rng stream) and the seed — so a
// same-name copy with one changed field is a different stream.
func OpsFor(b workload.Benchmark, seed uint64) *OpStore {
	k, ok := memo.Key(b.ILP, b.Name, seed)
	if !ok {
		panic("trace: workload profile has no content key")
	}
	return opStores.Get(k, func() *OpStore {
		return &OpStore{gen: workload.NewInstrStream(b, seed)}
	})
}

// Len returns the number of materialized instructions.
func (s *OpStore) Len() int64 {
	if cs := s.chunks.Load(); cs != nil {
		return int64(len(*cs)) * ChunkLen
	}
	return 0
}

// at returns the ci-th chunk, materializing it and its predecessors if
// necessary.
func (s *OpStore) at(ci int64) *opChunk {
	if cs := s.chunks.Load(); cs != nil && ci < int64(len(*cs)) {
		return (*cs)[ci]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var cur []*opChunk
	if cs := s.chunks.Load(); cs != nil {
		cur = *cs
	}
	for int64(len(cur)) <= ci {
		// Appending in place is safe: a reader of an older list never
		// indexes past that list's length.
		next := append(cur, s.encode())
		s.chunks.Store(&next)
		cur = next
	}
	return cur[ci]
}

// encode generates the next ChunkLen instructions and packs them into a
// chunk.
func (s *OpStore) encode() *opChunk {
	c := new(opChunk)
	enc := s.scratch[:0]
	var blk [genBlock]workload.Instr
	for base := 0; base < ChunkLen; base += genBlock {
		for _, in := range s.gen.Fill(blk[:0], genBlock) {
			enc = binary.AppendVarint(enc, int64(in.Src[0]))
			enc = binary.AppendVarint(enc, int64(in.Src[1]))
			enc = binary.AppendVarint(enc, int64(in.Latency))
		}
	}
	s.scratch = enc // keep the grown capacity for the next chunk
	c.enc = append(make([]byte, 0, len(enc)), enc...)
	obsOpChunks.Inc()
	obsBytes.Add(int64(unsafe.Sizeof(*c)) + int64(len(c.enc)))
	obsBytesRaw.Add(rawOpChunkBytes)
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

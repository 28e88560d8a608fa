package trace

// Varint/zigzag codec for the instruction store's chunk payloads. Chunk
// contents are a byte stream of LEB128 varints; signed quantities are
// zigzag folded so small magnitudes of either sign stay short. The encoder
// is encoding/binary's AppendVarint (the compiler inlines it whole); the
// decoder below is hand-written for the replay fast path. Every value is
// encoded on its own, so a chunk is decodable without any state from its
// predecessors.
//
// Cursors decode incrementally, keeping only a byte offset — no per-cursor
// decode buffer — so a dozen concurrent replay cursors cost a few words
// each, not a chunk's worth of scratch.

// unzigzag undoes binary.AppendVarint's fold, which puts the magnitude in
// the high bits and the sign in bit 0: 0,-1,1,-2,2... -> 0,1,2,3,4...
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintAt decodes the LEB128 value starting at b[off] and returns it with
// the first offset past it. Chunks are encoded whole before publication, so
// the stream can never be truncated mid-value and the loop needs no bounds
// checks beyond the slice's own.
func uvarintAt(b []byte, off int) (uint64, int) {
	// Fast path: single-byte values dominate the instruction stream (small
	// dependence distances, small latencies).
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

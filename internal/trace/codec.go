package trace

// Varint/zigzag codec for the compressed chunk payloads. Every store encodes
// its chunk contents as a byte stream of LEB128 varints (the encoding
// encoding/binary uses); signed or wraparound-prone quantities are zigzag
// folded first so small magnitudes of either sign stay short. Address
// streams are additionally delta-encoded against the previous value IN THE
// SAME CHUNK — each chunk's delta chain starts from zero, so a
// chunk is decodable on its own and cursors never need cross-chunk state.
//
// Cursors decode incrementally, one value per Next, keeping only (previous
// value, byte offset) — no per-cursor decode buffer — so a dozen concurrent
// replay cursors cost a few words each, not a chunk's worth of scratch.

// zigzag folds a signed value into an unsigned code with the magnitude in
// the high bits and the sign in bit 0: 0,-1,1,-2,2... -> 0,1,2,3,4...
// Deltas of uint64 addresses are folded through int64 first, which makes the
// encoding wraparound-safe: the delta arithmetic is exact mod 2^64 on both
// sides, so decode(prev + unzigzag(code)) recovers the address even when the
// subtraction wrapped.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag is the inverse of zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendUvarint appends v in LEB128 form (identical output to
// binary.AppendUvarint, inlined here so the encoder and decoder sit side by
// side).
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// uvarintAt decodes the LEB128 value starting at b[off] and returns it with
// the first offset past it. Chunks are encoded whole before publication, so
// the stream can never be truncated mid-value and the loop needs no bounds
// checks beyond the slice's own.
func uvarintAt(b []byte, off int) (uint64, int) {
	// Fast path: single-byte values dominate every stream this package
	// encodes (small deltas, small dependence distances, small latencies).
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

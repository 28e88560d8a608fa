// Persistent tier: an optional study cache on disk.
//
// A Store maps canonical key strings to encoded values under a root
// directory, so independent replicas, repeated CLI runs, processes sharing
// one directory and CI share memoized studies instead of recomputing them. The design follows
// the rest of the memo package: correctness never depends on the cache —
// every read path degrades to a recompute — so the store can be deleted,
// truncated, or concurrently written at any time.
//
//   - Segments: rows are published in batches, one segment file per Flush
//     (experiments.RunCtx flushes once per run), each holding many entries
//     under their full keys. A segment's name carries a Bloom filter of its
//     keys, so a lookup lists the directory and reads, once, only the
//     segments that may hold its key; a later miss lists it again for new
//     segments, so processes sharing a directory see each other's rows. A
//     run that needs a small part of a large store reads that part. A
//     process that dies before its flush loses only that batch's rows,
//     which are misses for the next run.
//   - Atomic publication: a segment is written to a unique temp file in the
//     store root and rename(2)d to a name drawn from its bytes (SHA-256)
//     and keys (the filter). Readers therefore see either a complete
//     segment or none; two writers that publish the same rows publish the
//     same file.
//   - Corruption tolerance: a segment that is not exactly what Flush writes
//     — truncated, wrong schema line, checksum mismatch, trailing bytes —
//     is a miss for all its rows and is removed best-effort, so the next
//     flush republishes them. A row written for another layout of its type
//     is a miss that removes its whole segment: its other rows are
//     recomputed by the next run that asks for them, and republished.
//   - Bounded memory: a Store holds the rows put since its last Flush, the
//     rows it has read but not yet served, an index from the hash of each
//     key it has read or written to a segment holding it, and the filters
//     of the segments it has listed but not read. A row is released once
//     served (the memo above a PersistDo holds the decoded value) and
//     pending rows at Flush; a row asked for again — one the memo above
//     evicted — is re-read from the segment the index names, the Store's
//     own included. So a long-lived process grows by tens of bytes a key
//     and a segment, not with the rows it computes or serves.
//   - Versioned schema: segments live under <root>/v3 and start with the
//     schema line. A future incompatible layout bumps the directory and the
//     line; old entries are simply never read again (the per-row files of
//     v1 and v2 are such).
//
// A segment file is named with 32 hex digits of its SHA-256, "-", the
// 512-bit filter of its keys as 128 hex digits (bit i is 1<<(i%8) of byte
// i/8) and ".seg"; a name without a filter may hold any key. It
// holds the schema line "capsim/study-cache/v3\n", the entry count as a
// varint, then the entries in strictly increasing key order, each the key's
// length as a varint, the key, the CRC-32 (IEEE, little-endian) of the key
// and payload, the payload's length as a varint and the payload; varints
// are minimal and nothing follows the last entry.
// PersistDo's payloads are the value's layout fingerprint, then its content
// encoding (codec.go), the one Key writes for its parts.
package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"capsim/internal/obs"
)

// Telemetry (internal/obs): the persistent tier's counters, distinct from
// the in-memory hit/miss pair so a warm-disk cold-process run is observable
// (memo.hits stays 0 while memo.persist_hits climbs).
var (
	obsPersistHits   = obs.NewCounter("memo.persist_hits")   // entry served from disk
	obsPersistMisses = obs.NewCounter("memo.persist_misses") // no usable entry on disk
	obsPersistWrites = obs.NewCounter("memo.persist_writes") // entries published
)

// storeSchema versions the segment layout and storeDir the directory
// layout; bump both together on incompatible changes.
const (
	storeSchema = "capsim/study-cache/v3"
	storeDir    = "v3"
)

// Store is a persistent study cache rooted at a directory. The zero value
// is not usable; create one with OpenStore. All methods are safe for
// concurrent use by any number of goroutines and processes.
type Store struct {
	root string // <user dir>/v3

	scanMu  sync.Mutex // held by the one reader of segments at a time
	flushMu sync.Mutex // held by the one Flush at a time

	mu      sync.Mutex
	pending map[string][]byte    // put since the last Flush
	rows    map[string]storedRow // read from segments, not yet served
	index   map[uint64]string    // key's hash -> a segment holding the key
	unread  map[string]*filter   // segments listed, not yet read: their key filters
	seen    map[string]bool      // segments read or written here
}

// storedRow is a row read from a segment: its payload, which aliases the
// segment's bytes, and the segment's file name.
type storedRow struct {
	payload []byte
	seg     string
}

// OpenStore opens (creating if needed) a persistent store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("memo: empty store directory")
	}
	root := filepath.Join(dir, storeDir)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("memo: open store: %w", err)
	}
	return &Store{
		root: root, rows: map[string]storedRow{}, index: map[uint64]string{},
		unread: map[string]*filter{}, seen: map[string]bool{},
	}, nil
}

// Dir returns the store's versioned root directory.
func (s *Store) Dir() string { return s.root }

// castagnoli returns the table of keyHash's first half, built on first use
// so that a process that hashes no key (capsim -list, -report, a run
// without a study cache) does not build it at start-up.
var castagnoli = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

// keyHash is the hash a key is indexed and filtered by, the same in every
// process: its CRC-32C, then its CRC-32 (IEEE).
func keyHash(key string) uint64 {
	b := []byte(key)
	return uint64(crc32.Checksum(b, castagnoli()))<<32 | uint64(crc32.ChecksumIEEE(b))
}

// A filter is the Bloom filter of a segment's keys that its file name
// carries, so a lookup reads only the segments that may hold its key. With
// filterProbes bits set per key, a run's segment of 20 rows answers "maybe"
// for another key about once in 2,300 lookups, one of 94 rows once in 14.
type filter [filterBits / 8]byte

const (
	filterBits   = 512
	filterProbes = 4
)

// probes returns the filter bits of a key of hash h.
func probes(h uint64) (bits [filterProbes]uint32) {
	h1, h2 := uint32(h), uint32(h>>32)|1
	for i := range bits {
		bits[i] = (h1 + uint32(i)*h2) % filterBits
	}
	return bits
}

func (f *filter) add(h uint64) {
	for _, b := range probes(h) {
		f[b/8] |= 1 << (b % 8)
	}
}

// mayHold reports whether a key of hash h may be in f's segment; a nil
// filter, of a name that carries none, may hold any key.
func (f *filter) mayHold(h uint64) bool {
	if f == nil {
		return true
	}
	for _, b := range probes(h) {
		if f[b/8]&(1<<(b%8)) == 0 {
			return false
		}
	}
	return true
}

// segmentName names the segment file seg holding entries: 32 hex digits
// of seg's SHA-256, "-", the filter of its keys in hex, ".seg".
func segmentName(seg []byte, entries []segEntry) string {
	var f filter
	for _, e := range entries {
		f.add(keyHash(e.key))
	}
	sum := sha256.Sum256(seg)
	return hex.EncodeToString(sum[:16]) + "-" + hex.EncodeToString(f[:]) + ".seg"
}

// nameFilter returns the key filter segment file name carries, or nil when
// it carries none.
func nameFilter(name string) *filter {
	_, fh, _ := strings.Cut(strings.TrimSuffix(name, ".seg"), "-")
	var f filter
	if len(fh) != 2*len(f) {
		return nil
	}
	if _, err := hex.Decode(f[:], []byte(fh)); err != nil {
		return nil
	}
	return &f
}

// segEntry is one entry of a segment file.
type segEntry struct {
	key     string
	payload []byte
}

// minEntry is the fewest bytes a segment entry takes: two one-byte
// lengths and the checksum.
const minEntry = 6

// entrySum is the checksum an entry carries.
func entrySum(key, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(key), crc32.IEEETable, payload)
}

// encodeSegment returns the segment file holding entries, which must be in
// strictly increasing key order.
func encodeSegment(entries []segEntry) []byte {
	b := binary.AppendUvarint([]byte(storeSchema+"\n"), uint64(len(entries)))
	for _, e := range entries {
		b = binary.AppendUvarint(b, uint64(len(e.key)))
		k := len(b)
		b = append(b, e.key...)
		b = binary.LittleEndian.AppendUint32(b, entrySum(b[k:], e.payload))
		b = append(binary.AppendUvarint(b, uint64(len(e.payload))), e.payload...)
	}
	return b
}

// parseSegment returns the entries of segment file raw, or ok=false unless
// raw is exactly what encodeSegment writes for them. Payloads alias raw;
// besides the keys' bytes it allocates one entry per minEntry input bytes
// at most.
func parseSegment(raw []byte) ([]segEntry, bool) {
	body, ok := bytes.CutPrefix(raw, []byte(storeSchema+"\n"))
	if !ok {
		return nil, false
	}
	d := decoder{b: body}
	n := d.uvarint()
	if n > uint64(len(d.b)/minEntry) {
		return nil, false
	}
	entries := make([]segEntry, 0, n)
	for ; n > 0; n-- {
		key := d.chunk()
		if len(d.b) < 4 {
			return nil, false
		}
		sum := binary.LittleEndian.Uint32(d.b)
		d.b = d.b[4:]
		payload := d.chunk()
		if d.bad || entrySum(key, payload) != sum ||
			len(entries) > 0 && entries[len(entries)-1].key >= string(key) {
			return nil, false
		}
		entries = append(entries, segEntry{string(key), payload})
	}
	return entries, !d.bad && len(d.b) == 0
}

// lookup returns the row stored for key: one put since the last Flush, one
// read from a segment and not yet served, or one the index places in a
// segment, which it reads again. Failing those, it reads the segments
// listed earlier whose filters may hold the key, then lists the directory
// for new segments and reads those whose filters may. One reader runs at a
// time, and no file is read under the lock a hit takes.
func (s *Store) lookup(key string) (storedRow, bool) {
	if r, ok := s.take(key); ok {
		return r, true
	}
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	h := keyHash(key)
	s.readMatching(h) // or another reader already read the key's segment
	if r, ok := s.take(key); ok {
		return r, true
	}
	if s.list() {
		s.readMatching(h)
	}
	return s.take(key)
}

// take returns key's pending row, or its row read and not yet served
// (releasing it), or the row re-read from the segment the index names.
func (s *Store) take(key string) (storedRow, bool) {
	s.mu.Lock()
	if p, ok := s.pending[key]; ok {
		s.mu.Unlock()
		return storedRow{payload: p}, true
	}
	if r, ok := s.rows[key]; ok {
		delete(s.rows, key)
		s.mu.Unlock()
		return r, true
	}
	h := keyHash(key)
	seg, ok := s.index[h]
	s.mu.Unlock()
	if !ok {
		return storedRow{}, false
	}
	if entries, ok := s.readSegment(seg); ok {
		i, found := slices.BinarySearchFunc(entries, key, func(e segEntry, k string) int { return strings.Compare(e.key, k) })
		if found {
			return storedRow{entries[i].payload, seg}, true
		}
	}
	s.mu.Lock() // gone, corrupt, or a hash collision: forget the place
	if s.index[h] == seg {
		delete(s.index, h)
	}
	s.mu.Unlock()
	return storedRow{}, false
}

// readSegment returns the entries of segment file name. A segment that does
// not parse is removed best-effort.
func (s *Store) readSegment(name string) ([]segEntry, bool) {
	p := filepath.Join(s.root, name)
	raw, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	entries, ok := parseSegment(raw)
	if !ok {
		os.Remove(p)
	}
	return entries, ok
}

// list adds the directory's segments this Store has not listed, read or
// written to the unread ones, and reports whether there were any. The
// caller holds scanMu.
func (s *Store) list() bool {
	des, err := os.ReadDir(s.root)
	if err != nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	added := false
	for _, de := range des {
		name := de.Name()
		if _, listed := s.unread[name]; !listed && !s.seen[name] && strings.HasSuffix(name, ".seg") {
			s.unread[name] = nameFilter(name)
			added = true
		}
	}
	return added
}

// readMatching reads the unread segments whose filters may hold a key of
// hash h and indexes their rows, holding the payloads of keys it did not
// know until they are served. The caller holds scanMu.
func (s *Store) readMatching(h uint64) {
	var names []string
	s.mu.Lock()
	for name, f := range s.unread {
		if f.mayHold(h) {
			delete(s.unread, name)
			s.seen[name] = true
			names = append(names, name)
		}
	}
	s.mu.Unlock()
	for _, name := range names {
		entries, ok := s.readSegment(name)
		if !ok {
			continue
		}
		s.mu.Lock()
		for _, e := range entries {
			h := keyHash(e.key)
			if _, known := s.index[h]; known || s.pending[e.key] != nil {
				continue // served or held already, or published soon
			}
			s.index[h] = name
			s.rows[e.key] = storedRow{e.payload, name}
		}
		s.mu.Unlock()
	}
}

// countRead records one persistent lookup's outcome.
func countRead(hit bool) {
	if hit {
		obsPersistHits.Inc()
	} else {
		obsPersistMisses.Inc()
	}
}

// GetBytes returns the payload stored for key, or ok=false when no usable
// entry is on disk or pending. The caller must not modify it.
func (s *Store) GetBytes(key string) ([]byte, bool) {
	r, ok := s.lookup(key)
	countRead(ok)
	return r.payload, ok
}

// PutBytes queues a copy of payload under key for the next Flush, which
// publishes it; until then GetBytes serves it from memory. The error is
// always nil: publication, and its failures, belong to Flush.
func (s *Store) PutBytes(key string, payload []byte) error {
	s.put(key, bytes.Clone(payload))
	return nil
}

func (s *Store) put(key string, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		s.pending = map[string][]byte{}
	}
	s.pending[key] = payload
}

// Flush publishes the rows put since the last Flush as one segment file and
// releases them, indexing their keys to it: written to a unique temp file in
// the store root, then renamed into place. Rows that fail to publish are
// released too; a later lookup misses them. With nothing pending, or on a
// nil Store, it writes nothing.
func (s *Store) Flush() error {
	if s == nil {
		return nil
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	entries := make([]segEntry, 0, len(s.pending))
	for k, p := range s.pending {
		entries = append(entries, segEntry{k, p})
	}
	s.mu.Unlock()
	if len(entries) == 0 {
		return nil
	}
	slices.SortFunc(entries, func(a, b segEntry) int { return strings.Compare(a.key, b.key) })
	seg := encodeSegment(entries)
	name := segmentName(seg, entries)
	err := s.publish(seg, name)

	// The rows leave pending only now, so a lookup meanwhile still hits.
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		delete(s.pending, e.key)
		if err == nil {
			s.index[keyHash(e.key)] = name
		}
	}
	if err != nil {
		return err
	}
	s.seen[name] = true
	obsPersistWrites.Add(int64(len(entries)))
	return nil
}

// publish writes seg to a temp file in the store root and renames it to
// name.
func (s *Store) publish(seg []byte, name string) error {
	tmp, err := os.CreateTemp(s.root, "put-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(seg); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(s.root, name))
}

// PersistDo is Do against a Store: return the decoded entry for key if one
// is usable, otherwise compute with fn and queue the result for the store's
// next Flush. A nil store degrades to a plain fn() call, so callers thread
// one optional pointer.
//
// Values are stored in the content encoding that keys use (codec.go), which
// round-trips float64 bit-exactly (including ±Inf, NaN and −0), so the
// byte-identical-render contract survives the disk hop. V may be built from
// bools, integers, float64s, strings, slices, arrays, integer-keyed maps and
// structs of exported fields; any other type panics. An entry written for
// another layout of V is a miss and removes its whole segment (the other
// rows in it are recomputed when next asked for). Errors from fn are
// never persisted (the disk tier memoizes results, not failures).
func PersistDo[V any](s *Store, key string, fn func() (V, error)) (V, error) {
	if s == nil {
		return fn()
	}
	if r, ok := s.lookup(key); ok {
		if v, ok := unmarshalRow[V](r.payload); ok {
			countRead(true)
			return v, nil
		}
		if r.seg != "" {
			os.Remove(filepath.Join(s.root, r.seg))
		}
	}
	countRead(false)
	v, err := fn()
	if err != nil {
		return v, err
	}
	s.put(key, marshalRow(v))
	return v, nil
}

// Persistent tier: an optional content-addressed study cache on disk.
//
// A Store maps canonical key strings to encoded values under a root
// directory, so independent replicas, repeated CLI runs, processes sharing
// one directory and CI share memoized studies instead of recomputing them. The design follows
// the rest of the memo package: correctness never depends on the cache —
// every read path degrades to a recompute — so the store can be deleted,
// truncated, or concurrently written at any time.
//
//   - Content addressing: the file name is the SHA-256 of the key, fanned
//     out over 256 subdirectories; the full key is stored inside the entry
//     and verified on read, so a hash collision degrades to a miss, never to
//     a wrong value.
//   - Atomic publication: writers encode into a unique temp file in the
//     store root and rename(2) it into place. Readers therefore see either a
//     complete entry or none; two writers racing on one key both publish a
//     byte-equivalent entry and the later rename wins.
//   - Corruption tolerance: any decode problem — truncated file, wrong
//     schema line, key mismatch, checksum mismatch, a value written for
//     another layout of its type — counts as a miss and best-effort removes
//     the bad entry so the next write repairs it.
//   - Versioned schema: entries live under <root>/v2 and start with the
//     schema line. A future incompatible layout bumps the directory and the
//     line; old entries are simply never read again (the gob-encoded v1
//     entries of earlier builds are such).
//
// An entry file is the schema line "capsim/study-cache/v2\n", the key's
// length as a varint, the key, the CRC-32 (IEEE, little-endian) of the
// payload, and the payload, which runs to the end of the file. PersistDo's
// payloads are the value's layout fingerprint, then its content encoding
// (codec.go), the one Key writes for its parts.
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

// storeSchema versions the entry layout and storeDir the directory layout;
// bump both together on incompatible changes.
const (
	storeSchema = "capsim/study-cache/v2"
	storeDir    = "v2"
)

// Store is a persistent content-addressed blob cache rooted at a directory.
// The zero value is not usable; create one with OpenStore. All methods are
// safe for concurrent use by any number of goroutines and processes.
type Store struct {
	root string // <user dir>/v2
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
	return &Store{root: root}, nil
}

// Dir returns the store's versioned root directory.
func (s *Store) Dir() string { return s.root }

// path returns the entry file for key: two-hex-digit fan-out over the
// SHA-256 of the key, so no single directory grows unboundedly.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.root, name[:2], name+".row")
}

// entryHeader returns the bytes every entry for key starts with: the schema
// line and the length-prefixed key.
func entryHeader(key string) []byte {
	b := append([]byte(storeSchema), '\n')
	return append(binary.AppendUvarint(b, uint64(len(key))), key...)
}

// encodeEntry returns the entry file for payload under key.
func encodeEntry(key string, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(entryHeader(key), crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// decodeEntry returns the payload of entry file raw if it is an intact
// entry for key.
func decodeEntry(key string, raw []byte) ([]byte, bool) {
	h := entryHeader(key)
	if len(raw) < len(h)+4 || !bytes.Equal(raw[:len(h)], h) {
		return nil, false
	}
	payload := raw[len(h)+4:]
	return payload, binary.LittleEndian.Uint32(raw[len(h):]) == crc32.ChecksumIEEE(payload)
}

// read returns the payload stored for key, removing an unusable entry
// best-effort so a later write repairs it.
func (s *Store) read(key string) ([]byte, bool) {
	p := s.path(key)
	raw, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	payload, ok := decodeEntry(key, raw)
	if !ok {
		os.Remove(p)
	}
	return payload, ok
}

// countRead records one persistent lookup's outcome.
func countRead(hit bool) {
	if hit {
		obsPersistHits.Inc()
	} else {
		obsPersistMisses.Inc()
	}
}

// GetBytes returns the payload stored for key, or ok=false when the entry is
// absent or unusable. Unusable entries (truncated, wrong schema, key or
// checksum mismatch) are removed best-effort so a later write repairs them.
func (s *Store) GetBytes(key string) ([]byte, bool) {
	payload, ok := s.read(key)
	countRead(ok)
	return payload, ok
}

// PutBytes publishes payload under key: write to a unique temp file in the
// store root, then rename into place. Concurrent writers for the same key
// are both deterministic producers of the same bytes, so whichever rename
// lands last is equivalent.
func (s *Store) PutBytes(key string, payload []byte) error {
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.root, "put-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(encodeEntry(key, payload)); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return err
	}
	obsPersistWrites.Inc()
	return nil
}

// PersistDo is Do against a Store: return the decoded entry for key if one
// is usable, otherwise compute with fn and publish the result. A nil store
// degrades to a plain fn() call, so callers thread one optional pointer.
//
// Values are stored in the content encoding that keys use (codec.go), which
// round-trips float64 bit-exactly (including ±Inf, NaN and −0), so the
// byte-identical-render contract survives the disk hop. V may be built from
// bools, integers, float64s, strings, slices, arrays, integer-keyed maps and
// structs of exported fields; any other type panics. An entry written for
// another layout of V is a miss and is removed. Errors from fn are never
// persisted (the disk tier memoizes results, not failures), and a failed
// publish degrades to returning the computed value.
func PersistDo[V any](s *Store, key string, fn func() (V, error)) (V, error) {
	if s == nil {
		return fn()
	}
	if raw, ok := s.read(key); ok {
		if v, ok := unmarshalRow[V](raw); ok {
			countRead(true)
			return v, nil
		}
		os.Remove(s.path(key))
	}
	countRead(false)
	v, err := fn()
	if err != nil {
		return v, err
	}
	// Publish failures are non-fatal by design: the value is correct, the
	// disk tier just stays cold for this key.
	_ = s.PutBytes(key, marshalRow(v))
	return v, nil
}

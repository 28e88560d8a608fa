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
//     magic, wrong schema version, key mismatch, checksum mismatch — counts
//     as a miss and best-effort removes the bad entry so the next write
//     repairs it.
//   - Versioned schema: entries live under <root>/v1 and carry the schema
//     string inside the envelope. A future incompatible layout bumps the
//     directory and the string; old entries are simply never read again.
package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
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

// storeSchema versions the on-disk entry envelope; storeDir versions the
// layout. Bump both together on incompatible changes.
const (
	storeSchema = "capsim/study-cache/v1"
	storeDir    = "v1"
)

// storeEntry is the on-disk envelope. Payload is the caller's encoded value;
// Sum is its CRC-32 (IEEE), the cheap end-to-end check that catches
// truncation and bit rot without re-hashing the whole key space.
type storeEntry struct {
	Schema  string
	Key     string
	Sum     uint32
	Payload []byte
}

// Store is a persistent content-addressed blob cache rooted at a directory.
// The zero value is not usable; create one with OpenStore. All methods are
// safe for concurrent use by any number of goroutines and processes.
type Store struct {
	root string // <user dir>/v1
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
	return filepath.Join(s.root, name[:2], name+".gob")
}

// GetBytes returns the payload stored for key, or ok=false when the entry is
// absent or unusable. Unusable entries (truncated, wrong schema, key or
// checksum mismatch) are removed best-effort so a later write repairs them.
func (s *Store) GetBytes(key string) ([]byte, bool) {
	p := s.path(key)
	raw, err := os.ReadFile(p)
	if err != nil {
		obsPersistMisses.Inc()
		return nil, false
	}
	var e storeEntry
	if derr := gob.NewDecoder(bytes.NewReader(raw)).Decode(&e); derr != nil ||
		e.Schema != storeSchema || e.Key != key || e.Sum != crc32.ChecksumIEEE(e.Payload) {
		obsPersistMisses.Inc()
		os.Remove(p) // best-effort repair; the next Put rewrites it
		return nil, false
	}
	obsPersistHits.Inc()
	return e.Payload, true
}

// PutBytes publishes payload under key: encode to a unique temp file in the
// store root, then rename into place. Concurrent writers for the same key
// are both deterministic producers of the same bytes, so whichever rename
// lands last is equivalent.
func (s *Store) PutBytes(key string, payload []byte) error {
	var buf bytes.Buffer
	e := storeEntry{Schema: storeSchema, Key: key, Sum: crc32.ChecksumIEEE(payload), Payload: payload}
	if err := gob.NewEncoder(&buf).Encode(&e); err != nil {
		return fmt.Errorf("memo: encode %q: %w", key, err)
	}
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.root, "put-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf.Bytes()); err != nil {
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
// Values are encoded with encoding/gob, which round-trips float64 bit-exactly
// (including ±Inf and NaN) — the byte-identical-render contract therefore
// survives the disk hop. V must be a gob-encodable type with exported fields.
// Errors from fn are never persisted (the disk tier memoizes results, not
// failures), and a failed publish degrades to returning the computed value.
func PersistDo[V any](s *Store, key string, fn func() (V, error)) (V, error) {
	if s == nil {
		return fn()
	}
	if raw, ok := s.GetBytes(key); ok {
		var v V
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&v); err == nil {
			return v, nil
		}
		// Payload decoded as an envelope but not as V: treat as corruption.
		os.Remove(s.path(key))
	}
	v, err := fn()
	if err != nil {
		return v, err
	}
	var buf bytes.Buffer
	if encErr := gob.NewEncoder(&buf).Encode(&v); encErr == nil {
		// Publish failures are non-fatal by design: the value is correct,
		// the disk tier just stays cold for this key.
		_ = s.PutBytes(key, buf.Bytes())
	}
	return v, nil
}

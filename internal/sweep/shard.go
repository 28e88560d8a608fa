// Shard partition contract: split the deterministic study-row key space
// across N cooperating processes.
//
// The unit of distribution is the *study row* — the same canonical key
// strings the memo tier and the persistent study cache are addressed by. A
// row belongs to exactly one bucket, chosen by hashing its key through the
// repository's seed-derivation contract (rng.DeriveSeed — the same expansion
// that gives every benchmark its independent stream), so the assignment is a
// pure function of the key: stable across processes, machines, Go versions,
// and shard counts that divide the same bucket space.
//
// A shard process runs the full experiment skeleton but computes only the
// rows it owns, publishing them to the shared persistent store; rows it does
// not own yield shape-correct stubs and the render is discarded. The merge
// is a plain unsharded run against the warm store: every row hits disk, the
// driver renders normally, and the output is byte-identical to a
// single-process run because the store round-trips float64 bit-exactly. The
// merge is self-healing — any row a shard failed to publish is simply
// recomputed.
package sweep

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"capsim/internal/rng"
)

// shardSalt seeds the key→bucket hash. It is part of the on-disk contract
// only in the weak sense that changing it reshuffles which shard computes
// which row; the persisted entries themselves are keyed by row key alone and
// stay valid.
const shardSalt uint64 = 0x51ab_c0de_1998_0a11

// Shard is one partition of the row key space: bucket Bucket of Of total.
type Shard struct {
	Bucket int // 0-based bucket this process owns
	Of     int // total bucket count, >= 1
}

// activeShard is the process-wide shard assignment, nil when unsharded. It is
// an atomic process-global so experiment drivers consult it at row
// granularity without plumbing a parameter through every signature.
var activeShard atomic.Pointer[Shard]

// SetShard makes s the process-wide shard assignment. Pass the zero Shard's
// negation via ClearShard to return to unsharded operation.
func SetShard(s Shard) error {
	if err := s.validate(); err != nil {
		return err
	}
	sh := s
	activeShard.Store(&sh)
	return nil
}

// ClearShard returns the process to unsharded operation (every row owned).
func ClearShard() { activeShard.Store(nil) }

// ActiveShard returns the current shard assignment, ok=false when unsharded.
func ActiveShard() (Shard, bool) {
	p := activeShard.Load()
	if p == nil {
		return Shard{}, false
	}
	return *p, true
}

func (s Shard) validate() error {
	if s.Of < 1 {
		return fmt.Errorf("sweep: shard count %d, want >= 1", s.Of)
	}
	if s.Bucket < 0 || s.Bucket >= s.Of {
		return fmt.Errorf("sweep: shard bucket %d out of range [0,%d)", s.Bucket, s.Of)
	}
	return nil
}

// String renders the canonical "i/N" spec ParseShard accepts.
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Bucket, s.Of) }

// ParseShard parses an "i/N" spec (0-based bucket i of N), as passed to
// `capsim -shard i/N`.
func ParseShard(spec string) (Shard, error) {
	bs, ns, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf("sweep: shard spec %q, want \"i/N\"", spec)
	}
	b, berr := strconv.Atoi(bs)
	n, nerr := strconv.Atoi(ns)
	if berr != nil || nerr != nil {
		return Shard{}, fmt.Errorf("sweep: shard spec %q, want \"i/N\"", spec)
	}
	s := Shard{Bucket: b, Of: n}
	if err := s.validate(); err != nil {
		return Shard{}, err
	}
	return s, nil
}

// BucketOf maps a row key to its bucket in an n-bucket space. The assignment
// is uniform (xoshiro-quality bits from DeriveSeed) and depends only on
// (key, n).
func BucketOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(rng.DeriveSeed(shardSalt, key) % uint64(n))
}

// Owns reports whether this shard computes the row with the given key.
func (s Shard) Owns(key string) bool {
	return s.Of <= 1 || BucketOf(key, s.Of) == s.Bucket
}

// OwnsKey consults the process-wide shard: true when unsharded or when the
// active shard owns key. This is the single call sites use to decide
// compute-vs-stub.
func OwnsKey(key string) bool {
	p := activeShard.Load()
	if p == nil {
		return true
	}
	return p.Owns(key)
}

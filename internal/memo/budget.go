package memo

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"capsim/internal/obs"
)

// Byte budget: an optional ceiling on the persistent store's disk footprint.
//
// The store is an unbounded append-only cache by default — correct, but a
// long-lived directory shared by CI, shard fleets and interactive runs
// accumulates every (seed, budget, geometry) variation ever computed. SetBudget
// bounds it: whenever a write pushes the store past the ceiling, the
// least-recently-USED entries are pruned first (access time, which GetBytes
// refreshes explicitly so the policy does not depend on the filesystem's
// atime mount options), ties broken by path so two replicas pruning the same
// directory remove the same entries. Eviction is safe by construction — every
// read path degrades to a recompute — so a pruned entry costs wall time, never
// correctness.
var obsPersistEvicts = obs.NewCounter("memo.persist_evictions")

// SetBudget sets the store's byte ceiling (0 or negative = unbounded) and
// prunes immediately if the existing contents already exceed it.
func (s *Store) SetBudget(n int64) {
	s.budget.Store(n)
	s.prune()
}

// Budget returns the store's byte ceiling (0 = unbounded).
func (s *Store) Budget() int64 { return s.budget.Load() }

// pruneEntry is one on-disk entry as seen by the pruner.
type pruneEntry struct {
	path  string
	size  int64
	atime time.Time
}

// prune removes least-recently-used entries until the store fits its budget.
// Concurrent prunes coalesce behind one mutex; concurrent writers can push
// the store transiently over budget between a rename and the next prune,
// which is fine — the ceiling bounds steady state, not instants. All removal
// is best-effort: an entry that vanishes mid-walk was evicted by a racing
// replica, which only helps.
func (s *Store) prune() {
	budget := s.budget.Load()
	if budget <= 0 {
		return
	}
	s.pruneMu.Lock()
	defer s.pruneMu.Unlock()

	var entries []pruneEntry
	var total int64
	filepath.WalkDir(s.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(p) != ".gob" {
			return nil // temp files and transient walk errors are not entries
		}
		fi, err := d.Info()
		if err != nil {
			return nil
		}
		entries = append(entries, pruneEntry{path: p, size: fi.Size(), atime: atimeOf(fi)})
		total += fi.Size()
		return nil
	})
	if total <= budget {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].atime.Equal(entries[j].atime) {
			return entries[i].atime.Before(entries[j].atime)
		}
		return entries[i].path < entries[j].path
	})
	for _, e := range entries {
		if total <= budget {
			break
		}
		if os.Remove(e.path) == nil {
			obsPersistEvicts.Inc()
		}
		total -= e.size // racing replica's removal counts toward the goal too
	}
}

// touch refreshes an entry's access time after a hit, making the LRU policy
// explicit instead of relying on atime mount semantics (relatime, noatime).
// Best-effort: a failed touch only ages the entry faster.
func (s *Store) touch(p string) {
	now := time.Now()
	os.Chtimes(p, now, now)
}

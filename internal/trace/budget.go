package trace

import (
	"sync"
	"sync/atomic"
)

// Store byte budget. The materialized-trace tier trades memory for wall time;
// a long-lived process (the experiment API server, a large -experiment all
// run) may want that trade bounded. SetBudget imposes a soft ceiling on the
// total live bytes across every memoized store: whenever a cursor-facing
// chunk load leaves the tier over budget, the least-recently-used store OTHER
// than the one just touched is evicted — its chunks are dropped and its
// generator rewound — until the tier fits or no other store holds bytes.
//
// Eviction is transparent and deterministic: a store's contents are a pure
// function of its construction key, so an evicted store regenerates
// bit-identical chunks on the next access (TestEvictionRegeneratesIdentical).
// The memo entry survives eviction — callers keep their *RefStore/*OpStore
// pointers and singleflight identity; only the chunk storage resets. Cursors
// mid-replay hold direct pointers to immutable chunks, so an eviction under
// them costs regeneration work on their next chunk load, never correctness.
//
// The budget is enforced only at cursor-facing chunk loads (never while any
// store lock is held), so enforcement can take the registry lock and then a
// victim's lock without lock-order cycles: registry -> victim store, always.
var (
	// budgetBytes <= 0 means unbounded (the default).
	budgetBytes atomic.Int64

	// useClock orders store touches for LRU victim selection; bumped on
	// every cursor-facing chunk load.
	useClock atomic.Uint64

	registry struct {
		mu     sync.Mutex
		stores []evictable
	}
)

// evictable is the registry's view of a store: live/nominal byte accounting,
// a recency stamp, and in-place eviction.
type evictable interface {
	liveBytes() int64
	nominalBytes() int64
	lastUse() uint64
	evict()
}

// SetBudget sets the process-wide live-byte ceiling for materialized stores;
// v <= 0 removes the ceiling. cmd/capsim exposes this as -trace-budget.
func SetBudget(v int64) { budgetBytes.Store(v) }

// Budget returns the current ceiling (<= 0 when unbounded).
func Budget() int64 { return budgetBytes.Load() }

// registerStore adds a newly created store to the eviction registry. Called
// from the memo constructors, which hold no store lock.
func registerStore(s evictable) {
	registry.mu.Lock()
	registry.stores = append(registry.stores, s)
	registry.mu.Unlock()
}

// clearRegistry forgets every store; Reset calls it after dropping the memos.
func clearRegistry() {
	registry.mu.Lock()
	registry.stores = nil
	registry.mu.Unlock()
}

// TotalBytes returns the live (compressed) bytes across all current stores.
func TotalBytes() int64 {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	var sum int64
	for _, s := range registry.stores {
		sum += s.liveBytes()
	}
	return sum
}

// TotalRawBytes returns what the same store contents would occupy in the
// pre-compression flat chunk layout; TotalBytes/TotalRawBytes is the tier's
// live compression ratio.
func TotalRawBytes() int64 {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	var sum int64
	for _, s := range registry.stores {
		sum += s.nominalBytes()
	}
	return sum
}

// touchStamp returns a fresh recency stamp for a cursor-facing chunk load.
func touchStamp() uint64 { return useClock.Add(1) }

// enforceBudget evicts cold stores until the tier fits the budget. self is
// the store the caller just touched and is never chosen as the victim (its
// cursor is actively replaying it). Callers must hold no store lock.
func enforceBudget(self evictable) {
	b := budgetBytes.Load()
	if b <= 0 {
		return
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	var total int64
	for _, s := range registry.stores {
		total += s.liveBytes()
	}
	for total > b {
		var victim evictable
		var oldest uint64
		for _, s := range registry.stores {
			if s == self {
				continue
			}
			live := s.liveBytes()
			if live == 0 {
				continue
			}
			if u := s.lastUse(); victim == nil || u < oldest {
				victim, oldest = s, u
			}
		}
		if victim == nil {
			return // nothing evictable but self; stay over budget
		}
		total -= victim.liveBytes()
		victim.evict()
	}
}

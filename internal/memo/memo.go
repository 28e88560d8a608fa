// Package memo provides a small concurrency-safe, singleflight-style
// memoization primitive used by the experiment study rows, the policy race
// families, the trace stores and the API server's response cache, plus the
// on-disk study cache (Store, PersistDo, persist.go).
//
// Unlike a plain mutex-guarded map, Memo never holds its lock while the
// memoized function runs: each key owns a sync.Once, so two goroutines asking
// for *different* keys compute concurrently, while two goroutines asking for
// the *same* key share one computation (the second blocks only on that key's
// Once).
//
// Memoized functions must be deterministic in their key: the first caller's
// result is returned to everyone, forever (until Reset). Functions that can
// panic must validate and panic *before* entering the memo — a panic inside
// sync.Once marks the entry complete and later callers would silently see the
// zero value.
package memo

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"capsim/internal/obs"
)

// Telemetry (internal/obs): cheap global counters over all Memo instances.
// Hits/misses partition Do calls by whether this call ran fn; the wait
// histogram times the calls that blocked on another goroutine's in-flight
// computation (singleflight stalls). All of it is gated on obs being live,
// so the plain path pays one predicted branch per Do.
var (
	obsHits   = obs.NewCounter("memo.hits")      // result already memoized
	obsMisses = obs.NewCounter("memo.misses")    // this call computed the entry
	obsWaitNS = obs.NewHistogram("memo.wait_ns") // time spent blocked
)

// entry is one key's slot: a Once guarding the computed value. done is
// telemetry only — it lets an instrumented Do distinguish a settled hit from
// a singleflight wait without perturbing the Once fast path. elem is the
// entry's node in the recency list when an entry cap is set (nil otherwise).
type entry[V any] struct {
	once sync.Once
	done atomic.Bool
	val  V
	err  error
	elem *list.Element
}

// Memo memoizes a function from K to (V, error). The zero value is ready to
// use and unbounded. All methods are safe for concurrent use.
type Memo[K comparable, V any] struct {
	mu  sync.Mutex
	m   map[K]*entry[V]
	cap int        // 0 = unbounded (the one-shot CLI default)
	lru *list.List // recency order, front = most recent; element values are keys
}

// SetCap bounds the memo to at most n entries with deterministic
// least-recently-used eviction: when an insert would exceed the cap, the
// entry whose slot was touched longest ago is dropped. n <= 0 restores the
// default unbounded behaviour. Long-lived processes (the experiment API
// server) set a cap so the memo cannot grow without bound; one-shot CLI runs
// never call it and keep the original grow-only semantics.
//
// Recency is tracked from the memo's first insert, so applying a cap to an
// already-populated memo evicts down to the bound immediately, in
// least-recently-used order over the accesses that actually happened.
// Evicting an entry whose computation is still in flight is safe — in-flight
// callers complete against the orphaned entry; later callers recompute.
func (c *Memo[K, V]) SetCap(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 {
		c.cap = 0
		return
	}
	c.cap = n
	c.evictLocked()
}

// slot returns (creating if needed) the entry for k. The map lock is held
// only for the lookup, never during computation. Recency is maintained
// unconditionally — unbounded memos pay one list node per entry so that a
// later SetCap can evict in true LRU order.
func (c *Memo[K, V]) slot(k K) *entry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[K]*entry[V])
	}
	if c.lru == nil {
		c.lru = list.New()
	}
	e, ok := c.m[k]
	if !ok {
		e = &entry[V]{}
		c.m[k] = e
		e.elem = c.lru.PushFront(k)
		c.evictLocked()
	} else if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
	return e
}

// evictLocked drops least-recently-used entries until the cap is respected;
// c.mu must be held.
func (c *Memo[K, V]) evictLocked() {
	if c.cap <= 0 || c.lru == nil {
		return
	}
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		if back == nil {
			return
		}
		k := back.Value.(K)
		if e, ok := c.m[k]; ok && e.elem == back {
			delete(c.m, k)
		}
		c.lru.Remove(back)
	}
}

// Forget drops k's entry, if any, so the next Do recomputes it. The
// experiment drivers use it to un-memoize context-cancellation errors: a
// request cancelled mid-computation must not poison the entry for every
// later request with the same key (deterministic *compute* errors stay
// memoized — retrying those cannot help). An in-flight computation completes
// against the orphaned entry; its waiters still observe its result.
func (c *Memo[K, V]) Forget(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok {
		return
	}
	delete(c.m, k)
	if e.elem != nil {
		c.lru.Remove(e.elem)
	}
}

// Do returns the memoized result for k, computing it with fn on first use.
// Concurrent callers with the same key share one fn invocation; callers with
// distinct keys never block each other. Errors are memoized too (the
// computations here are deterministic, so retrying cannot help).
func (c *Memo[K, V]) Do(k K, fn func() (V, error)) (V, error) {
	e := c.slot(k)
	settled := e.done.Load()
	// The wait histogram is the only instrument that reads the clock, and
	// only a caller that may block on another's computation can wait.
	var t0 time.Time
	timed := !settled && obs.Enabled()
	if timed {
		t0 = time.Now()
	}
	ran := false
	e.once.Do(func() {
		ran = true
		e.val, e.err = fn()
		e.done.Store(true)
	})
	switch {
	case ran:
		obsMisses.Inc()
	case settled:
		obsHits.Inc()
	default:
		// Entry existed but was still being computed when we arrived: we
		// blocked on that key's Once.
		obsHits.Inc()
		if timed {
			obsWaitNS.Observe(time.Since(t0).Nanoseconds())
		}
	}
	return e.val, e.err
}

// Get is Do for infallible functions.
func (c *Memo[K, V]) Get(k K, fn func() V) V {
	v, _ := c.Do(k, func() (V, error) { return fn(), nil })
	return v
}

// Has reports whether k currently has an entry (settled or in-flight)
// without touching its recency — a pure read, unlike Do/Get, which insert
// and promote.
func (c *Memo[K, V]) Has(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[k]
	return ok
}

// Len returns the number of memoized keys (including in-flight ones).
func (c *Memo[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Reset discards all memoized entries (the cap, if set, is kept). In-flight
// computations complete against the old entries; subsequent Do calls
// recompute.
func (c *Memo[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = nil
	if c.lru != nil {
		c.lru = list.New()
	}
}

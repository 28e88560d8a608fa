package ooo

import (
	"fmt"

	"capsim/internal/workload"
)

// scanCore is the window-scan reference model: the direct statement of the
// queue's semantics that the production engine is verified against. Every
// cycle dispatches up to IssueWidth instructions into the window, then walks
// the whole window oldest-first, resolving each entry's readiness and
// issuing up to IssueWidth ready entries in one pass. Cost O(cycles · W).
//
// It shares nothing with Core beyond Config, the dependence-horizon and
// ring-size constants and the Stats type, so the differential and fuzz tests
// compare two independent implementations.
type scanCore struct {
	cfg   Config
	cycle int64
	seq   int64

	// window is kept in dispatch order (oldest first); the select walk
	// visits it in order, matching an oldest-first priority encoder tree.
	window []scanEntry

	// done[seq & mask] is the cycle the instruction's result is available,
	// or scanPending while it sits unissued in the window.
	done []int64
	mask int64

	loadRPI float64
	loadAcc float64
	memLat  func(write bool) int64

	stats Stats
}

// scanPending marks a dispatched-but-not-yet-issued producer in the ring.
const scanPending = int64(1) << 62

// scanEntry is one occupied window slot.
type scanEntry struct {
	seq   int64 // dynamic instruction number (issue priority: oldest first)
	src0  int64 // producer seq, or -1
	src1  int64 // producer seq, or -1
	ready int64 // resolved readiness cycle, or -1 while a source is pending
	lat   int64
}

func newScanCore(cfg Config) (*scanCore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.WindowSize >= maxDist {
		return nil, fmt.Errorf("scan: window size %d exceeds supported maximum %d", cfg.WindowSize, maxDist-1)
	}
	r := ringSize(cfg.WindowSize)
	return &scanCore{
		cfg:    cfg,
		window: make([]scanEntry, 0, cfg.WindowSize),
		done:   make([]int64, r),
		mask:   int64(r - 1),
	}, nil
}

func (c *scanCore) Config() Config { return c.cfg }
func (c *scanCore) Stats() Stats   { return c.stats }
func (c *scanCore) Occupancy() int { return len(c.window) }

func (c *scanCore) Run(stream workload.InstrSource, n int64) Stats {
	before := c.stats
	target := c.stats.Issued + n
	for c.stats.Issued < target {
		c.Step(stream)
	}
	return c.stats.Sub(before)
}

func (c *scanCore) RunWithLoads(stream workload.InstrSource, n int64, rpi float64, memLat func(write bool) int64) Stats {
	c.loadRPI, c.memLat = min(max(rpi, 0), 1), memLat
	defer func() { c.loadRPI, c.memLat = 0, nil }()
	return c.Run(stream, n)
}

// Step advances one cycle: dispatch into free window slots, then one
// wakeup+select pass.
func (c *scanCore) Step(stream workload.InstrSource) {
	c.cycle++
	c.stats.Cycles++
	free := c.cfg.WindowSize - len(c.window)
	n := c.cfg.IssueWidth
	if n > free {
		n = free
		if free == 0 {
			c.stats.WindowFullCy++
		}
	}
	for i := 0; i < n; i++ {
		in := stream.Next()
		for c.done[c.seq&c.mask] > c.cycle {
			c.growRing(2 * len(c.done))
		}
		seq := c.seq
		c.seq++
		c.stats.Instrs++
		e := scanEntry{seq: seq, ready: -1, lat: c.instrLat(in)}
		e.src0 = c.producer(seq, in.Src[0])
		e.src1 = c.producer(seq, in.Src[1])
		c.done[seq&c.mask] = scanPending
		c.window = append(c.window, e)
	}
	c.issueCycle()
}

func (c *scanCore) instrLat(in workload.Instr) int64 {
	lat := int64(in.Latency)
	if c.loadRPI > 0 {
		c.loadAcc += c.loadRPI
		if c.loadAcc >= 1 {
			c.loadAcc--
			lat += c.memLat(false)
		}
	}
	return lat
}

// producer maps a dependence distance to a producer seq, or -1 when the
// producer is retired (distance 0, beyond the tracked horizon, or before
// program start).
func (c *scanCore) producer(seq int64, dist int32) int64 {
	if dist <= 0 || int64(dist) >= maxDist {
		return -1
	}
	p := seq - int64(dist)
	if p < 0 {
		return -1
	}
	return p
}

// lookupDone returns a producer's completion cycle and whether it is still
// pending. A producer whose ring slot has been recycled is long retired: the
// ring only recycles a slot whose completion cycle has passed.
func (c *scanCore) lookupDone(p int64) (int64, bool) {
	if p+int64(len(c.done)) <= c.seq {
		return 0, false
	}
	t := c.done[p&c.mask]
	if t == scanPending {
		return 0, true
	}
	return t, false
}

// issueCycle re-scans the window oldest first, resolving readiness and
// issuing up to IssueWidth ready entries in one pass. A producer issuing
// this cycle is visible to its consumers later in the same pass.
func (c *scanCore) issueCycle() {
	issued := 0
	w := c.window[:0]
	for i := range c.window {
		e := c.window[i]
		if e.ready < 0 {
			e.ready = c.resolve(&e)
		}
		if e.ready >= 0 && e.ready <= c.cycle && issued < c.cfg.IssueWidth {
			c.done[e.seq&c.mask] = c.cycle + e.lat
			c.stats.Issued++
			issued++
			continue
		}
		w = append(w, e)
	}
	c.window = w
}

// resolve returns the entry's readiness cycle, or -1 while any producer is
// still unissued.
func (c *scanCore) resolve(e *scanEntry) int64 {
	ready := int64(0)
	for _, p := range [2]int64{e.src0, e.src1} {
		if p < 0 {
			continue
		}
		t, pend := c.lookupDone(p)
		if pend {
			return -1
		}
		if t > ready {
			ready = t
		}
	}
	return ready
}

// Drain issues without dispatching until occupancy is at most max, one
// cycle at a time.
func (c *scanCore) Drain(max int) {
	if max < 0 {
		max = 0
	}
	for len(c.window) > max {
		c.cycle++
		c.stats.Cycles++
		c.stats.DrainStalls++
		c.issueCycle()
	}
}

func (c *scanCore) Resize(newSize int) error {
	if newSize < 1 || newSize >= maxDist {
		return fmt.Errorf("scan: window size %d out of range", newSize)
	}
	if newSize < len(c.window) {
		c.Drain(newSize)
	}
	if need := ringSize(newSize); need > len(c.done) {
		c.growRing(need)
	}
	c.cfg.WindowSize = newSize
	return nil
}

// growRing rehomes the completion ring into a larger power-of-two array,
// preserving every sequence number the old ring still covered.
func (c *scanCore) growRing(need int) {
	old, oldMask := c.done, c.mask
	c.done = make([]int64, need)
	c.mask = int64(need - 1)
	lo := c.seq - int64(len(old))
	if lo < 0 {
		lo = 0
	}
	for s := lo; s < c.seq; s++ {
		c.done[s&c.mask] = old[s&oldMask]
	}
}

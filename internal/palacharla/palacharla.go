// Package palacharla models the timing of out-of-order instruction-queue
// wakeup and selection logic, following Palacharla, Jouppi & Smith
// ("Quantifying the complexity of superscalar processors", TR-96-1328, and
// the ISCA'97 complexity-effective paper) — the delay source the CAP paper
// uses for its adaptive instruction queue (Section 5.1).
//
// The combined wakeup+select operation must complete atomically in one cycle
// so dependent instructions can issue in consecutive cycles; the CAP paper
// therefore sets the processor cycle time of each queue configuration to
// wakeup(W) + select(W) for the active window size W.
//
// Wakeup: result tags are broadcast on tag lines running the length of the
// CAM array; each entry compares the tags against its waiting operands. With
// the tag lines buffered between each group of 16 entries (the adaptive
// increment size), tag-drive delay grows essentially linearly in the number
// of active entries, with a small quadratic term inside a group.
//
// Select: a tree of 4-input priority encoders arbitrates among ready
// instructions; delay grows with the tree height ceil(log4(W)) (request
// propagates up, grant back down). Encoders attached to disabled window
// entries are turned off, and the height of the tree follows the active
// window size — the paper's adaptive selection logic.
package palacharla

import (
	"fmt"
	"math"

	"capsim/internal/memo"
	"capsim/internal/tech"
)

// GroupSize is the tag-line buffering increment: the adaptive queue grows
// and shrinks in groups of 16 entries, and repeaters are placed between
// groups (paper Section 5.1).
const GroupSize = 16

// Queue describes an issue-queue implementation whose timing is being
// evaluated.
type Queue struct {
	// Entries is the number of active window entries W.
	Entries int
	// IssueWidth is the machine issue width (tags broadcast per cycle);
	// it widens each entry and adds tag comparators. The paper models an
	// 8-way machine.
	IssueWidth int
}

// Validate reports whether the queue shape is usable.
func (q Queue) Validate() error {
	if q.Entries < 1 {
		return fmt.Errorf("palacharla: entries %d must be >= 1", q.Entries)
	}
	if q.IssueWidth < 1 {
		return fmt.Errorf("palacharla: issue width %d must be >= 1", q.IssueWidth)
	}
	return nil
}

// Timing constants, anchored at 0.18 micron (the generation the paper
// evaluates) and scaled linearly with feature size for the device-limited
// parts. The anchors reproduce the published trend: a 16-entry 8-way queue
// cycles in ~0.45 ns and a 128-entry one in ~0.85 ns at 0.18 micron.
const (
	anchorFeature = float64(tech.Micron018)

	// Tag drive: fixed driver stage + per-entry wire/diffusion load along
	// the buffered tag line (linear), + a small quadratic term within the
	// last 16-entry group (unbuffered segment).
	tagDriveBase    = 0.080 // ns
	tagDrivePerEnt  = 0.0019
	tagDriveGroupQ  = 0.00009 // ns per (entries-within-group)^2
	tagMatch        = 0.070   // ns, CAM compare
	matchOR         = 0.040   // ns, OR across IssueWidth match lines (8-way anchor)
	selectPerLevel  = 0.045   // ns per priority-encoder tree level
	selectRootGrant = 0.040   // ns, root arbitration + grant driver
)

// scale returns the linear device-scaling factor from the 0.18 micron
// anchor to the target process.
func scale(p tech.Params) float64 {
	return float64(p.Feature) / anchorFeature
}

// WakeupDelay returns the wakeup (tag drive + tag match + match OR) delay in
// ns for the queue at the given process.
func WakeupDelay(q Queue, p tech.Params) float64 {
	if err := q.Validate(); err != nil {
		panic(err)
	}
	within := q.Entries % GroupSize
	if within == 0 {
		within = GroupSize
	}
	widthFactor := 1.0 + 0.05*float64(q.IssueWidth-8)/8.0
	drive := tagDriveBase + tagDrivePerEnt*float64(q.Entries)*widthFactor +
		tagDriveGroupQ*float64(within*within)
	return (drive + tagMatch + matchOR) * scale(p)
}

// SelectTreeHeight returns the number of 4-input priority-encoder levels
// needed to arbitrate among W entries: ceil(log4(W)).
func SelectTreeHeight(entries int) int {
	if entries <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(entries)) / 2.0))
}

// SelectDelay returns the selection-logic delay in ns: request propagation
// up the 4-ary priority-encoder tree and grant propagation back down, plus
// root arbitration. Encoders for inactive entries are disabled and the tree
// height follows the active window size.
func SelectDelay(q Queue, p tech.Params) float64 {
	if err := q.Validate(); err != nil {
		panic(err)
	}
	h := SelectTreeHeight(q.Entries)
	return (selectRootGrant + 2.0*selectPerLevel*float64(h)) * scale(p)
}

// cycleKey keys the CycleTime memo; Queue and tech.Params are flat scalar
// structs, so the pair describes the computation completely.
type cycleKey struct {
	q Queue
	p tech.Params
}

// cycleTimes memoizes CycleTime: every queue profiling pass and policy
// engine (core.ProfileQueueTPI, core.MultiPolicy, core.ProfileCombined)
// evaluates the full configuration set, and parallel sweeps run many of them
// over the same handful of queue shapes.
// Validation (which panics) runs before entering the memo.
var cycleTimes memo.Memo[cycleKey, float64]

// CycleTime returns the atomic wakeup+select delay in ns — the processor
// cycle time for this queue configuration in the CAP paper's experiment
// ("the instruction queue wakeup and selection logic is on the critical
// timing path for all configurations"). Results are memoized per
// (Queue, Params).
func CycleTime(q Queue, p tech.Params) float64 {
	if err := q.Validate(); err != nil {
		panic(err)
	}
	return cycleTimes.Get(cycleKey{q, p}, func() float64 {
		return WakeupDelay(q, p) + SelectDelay(q, p)
	})
}

// --- Physical geometry for the Figure 2 wire-delay study -----------------

// EntryEquivalentBytes is the single-ported-RAM-equivalent area of one
// R10000-style integer queue entry: 52 bits of single-ported RAM, 12 bits of
// triple-ported CAM and 6 bits of quadruple-ported CAM; with CAM cells twice
// RAM area and area quadratic in ports, roughly 60 bytes of single-ported
// RAM (paper Section 2).
const EntryEquivalentBytes = 60

// entryRowCells is the assumed layout width of an entry in equivalent RAM
// cells; the rest of the entry's cell budget stacks vertically. 40 cells of
// width (the multi-ported CAM fields dominate the pitch) gives a 12-row
// entry, matching R10000-class queue footprints.
const entryRowCells = 40

// EntryHeightMM returns the vertical pitch of one queue entry in mm at the
// given process.
func EntryHeightMM(p tech.Params) float64 {
	cells := float64(EntryEquivalentBytes * 8)
	rows := math.Ceil(cells / entryRowCells)
	return rows * p.BitCellSide()
}

// BusLengthMM returns the length in mm of the global tag/data bus spanning
// `entries` queue entries at the given process.
func BusLengthMM(entries int, p tech.Params) float64 {
	if entries < 0 {
		entries = 0
	}
	return float64(entries) * EntryHeightMM(p)
}

// EntryLoadPF returns the capacitive load one entry hangs on the global bus
// in pF (CAM match-line gates across the issue-width comparators); it scales
// with feature size like any gate capacitance.
func EntryLoadPF(p tech.Params) float64 {
	return 5.0 * p.BufferC
}

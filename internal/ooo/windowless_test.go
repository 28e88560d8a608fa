package ooo

import (
	"testing"

	"capsim/internal/workload"
)

// windowless is a model oracle for the issue engine that shares no code or
// algorithm with it: the schedule of an 8-way machine with no window at all.
// The front end dispatches IssueWidth instructions every cycle, and each
// instruction issues at the first cycle, at or after its dispatch and its
// producers' completion (issue cycle plus latency), in which fewer than
// IssueWidth older instructions issue. It keeps three engine rules:
//
//   - the run stops at the end of the first cycle by which n instructions
//     have issued, whichever they are (younger ones may issue ahead of older);
//   - the front end dispatches at most IssueWidth instructions a cycle;
//   - a producer maxDist or more instructions back counts as retired.
//
// A window only holds dispatch back, so while the machine has dispatched no
// more instructions than the window holds, the engine's schedule is this
// one: a run whose windowless schedule dispatches at most W instructions
// must match it exactly at window W. Beyond that the oracle is a bound the
// engine should not beat, and a larger window should not need more cycles.
func windowless(src workload.InstrSource, width int, n int64) Stats {
	var done []int64 // completion cycle of every dispatched instruction
	var count []int  // issues per cycle
	var issued int64
	for t := int64(1); ; t++ {
		for range width {
			in := src.Next()
			i := int64(len(done))
			at := t
			for _, d := range in.Src {
				if d > 0 && d < maxDist && int64(d) <= i {
					at = max(at, done[i-int64(d)])
				}
			}
			for ; at < int64(len(count)) && count[at] == width; at++ {
			}
			for at >= int64(len(count)) {
				count = append(count, 0)
			}
			count[at]++
			done = append(done, at+int64(in.Latency))
		}
		// Everything dispatched later issues after t, so t's count is final.
		if issued += int64(count[t]); issued >= n {
			return Stats{Cycles: t, Instrs: int64(len(done)), Issued: issued}
		}
	}
}

// TestWindowlessSchedule checks the engine against the windowless oracle on
// every queue application at seeds 1998 and 1: exact equality for every run
// that fits in its window, and beyond that the oracle's cycle count as a
// bound and fewer (or as many) cycles at every larger window.
func TestWindowlessSchedule(t *testing.T) {
	const width = 8
	windows := []int{16, 64, 128, 512, maxDist - 1}
	n := int64(60_000)
	apps := workload.QueueApps()
	if testing.Short() {
		n = 20_000
	}
	for _, seed := range []uint64{1998, 1} {
		for _, b := range apps {
			stream := func() workload.InstrSource { return workload.NewInstrStream(b, seed) }
			run := func(w int, n int64) Stats {
				return MustNew(PaperConfig(w)).Run(stream(), n)
			}
			// Fits in the window: double the goal until the windowless
			// schedule dispatches more than the window holds.
			for _, w := range windows {
				for m := int64(1); ; m *= 2 {
					want := windowless(stream(), width, m)
					if want.Instrs > int64(w) {
						break
					}
					if got := run(w, m); got != want {
						t.Errorf("%s seed %d W=%d n=%d: engine %+v, windowless %+v", b.Name, seed, w, m, got, want)
					}
				}
			}
			bound := windowless(stream(), width, n)
			prev := int64(-1)
			for _, w := range windows {
				got := run(w, n)
				if got.Cycles < bound.Cycles {
					t.Errorf("%s seed %d W=%d: %d cycles to issue %d, below the windowless %d",
						b.Name, seed, w, got.Cycles, n, bound.Cycles)
				}
				if prev >= 0 && got.Cycles > prev {
					t.Errorf("%s seed %d W=%d: %d cycles, more than the smaller window's %d", b.Name, seed, w, got.Cycles, prev)
				}
				prev = got.Cycles
			}
		}
	}
}

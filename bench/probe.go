package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Host-speed normalization.
//
// Shared hosts change speed by tens of percent from one minute to the next
// and within seconds (other tenants contend for the cores, caches and
// memory), and capsim's CPU time stretches with its wall time, so neither
// measures the program alone. The harness therefore runs a fixed probe
// every segment of measured work and scales each piece of work by
// probeRefMS over the mean of the probes on both sides of it: a time reads
// what it would on a host running the probe in probeRefMS. A capsim
// process that runs longer than a segment is paused (SIGSTOP) while the
// probe runs and then resumed, so the probes never share the CPUs with it.
// The probe is harness code, identical for every commit measured, so the
// factor cancels the host's drift and nothing of the program's. Records
// keep the raw times and the factors.

// probeRefMS is the probe's median duration on the reference host (the one
// baseline.json was recorded on).
const probeRefMS = 15.0

// segment is how much measured work may pass between two probes.
const segment = 500 * time.Millisecond

// probeTables are the probe's working set: one 16 KB table per goroutine,
// inside a core's first-level cache, so the probe measures how fast the
// cores run. (A probe over multi-megabyte tables tracked capsim worse: it
// reacts to contention for the shared cache and memory far more strongly
// than capsim does.)
var probeTables = [2][]uint32{make([]uint32, 1<<12), make([]uint32, 1<<12)}

// probe runs the fixed kernel on two goroutines, as the two-CPU children
// do: xorshift-driven read-modify-writes over the table mixed with
// data-dependent branches.
func probe() time.Duration {
	const mask = 1<<12 - 1
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := range probeTables {
		wg.Add(1)
		go func(tab []uint32, x uint64) {
			defer wg.Done()
			var acc uint32
			for i := 0; i < 1_500_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				j := uint32(x) & mask
				tab[j] += uint32(x >> 32)
				if x&0x80 == 0 {
					acc += tab[(j*2654435761)&mask]
				} else {
					acc ^= uint32(x)
				}
			}
			tab[0] += acc
		}(probeTables[g], uint64(g)+1)
	}
	wg.Wait()
	return time.Since(t0)
}

// measure is one operation's wall and CPU time in ms, normalized, and its
// wall time as measured.
type measure struct {
	wall, cpu, rawWall float64
}

// meter normalizes measured work piece by piece: the pieces recorded since
// the last probe are scaled by probeRefMS over the mean of the probes on
// both sides of them.
type meter struct {
	last    float64 // the latest probe, ms
	since   time.Time
	open    []piece
	factors []float64 // every factor applied
}

type piece struct {
	into      *measure
	wall, cpu float64
}

func newMeter() *meter { return &meter{last: ms(probe()), since: time.Now()} }

// add records a piece of work into a measure, awaiting its factor.
func (m *meter) add(into *measure, wall, cpu time.Duration) {
	m.open = append(m.open, piece{into, ms(wall), ms(cpu)})
	into.rawWall += ms(wall)
}

// untilDue is how long measured work may continue before the next probe.
func (m *meter) untilDue() time.Duration { return segment - time.Since(m.since) }

// probe closes the segment: it probes and scales the open pieces.
func (m *meter) probe() {
	before := m.last
	m.last = ms(probe())
	f := probeRefMS / ((before + m.last) / 2)
	m.factors = append(m.factors, f)
	for _, p := range m.open {
		p.into.wall += p.wall * f
		p.into.cpu += p.cpu * f
	}
	m.open = nil
	m.since = time.Now()
}

// pause stops process pid (SIGSTOP) and waits until it has stopped. It
// reports false if the process exited instead.
func pause(pid int) bool {
	if syscall.Kill(pid, syscall.SIGSTOP) != nil {
		return false
	}
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
		switch procState(pid) {
		case 'T', 't':
			return true
		case 'Z', 'X', 0:
			return false
		}
	}
	return false
}

// procState is the state letter of process pid, or 0 if it is gone.
func procState(pid int) byte {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	s := string(data)
	if i := strings.LastIndexByte(s, ')'); i >= 0 && i+2 < len(s) {
		return s[i+2]
	}
	return 0
}

// Package core implements the paper's primary contribution: the
// Complexity-Adaptive Processor (CAP) control plane.
//
// A CAP intermixes fixed hardware structures with complexity-adaptive
// structures (CASes) whose size — and therefore whose worst-case timing —
// can be changed at runtime, together with a dynamic clock that lets every
// configuration run at its full clock-rate potential (paper Section 4). The
// pieces modeled here:
//
//   - Config: one selectable configuration of a CAS, with the cycle time
//     its worst-case timing imposes;
//   - Monitor: the on-chip performance-monitoring hardware, which measures
//     TPI (time per instruction = cycle time / IPC, the paper's metric) over
//     fixed instruction intervals;
//   - Policy: the configuration-management heuristic. The paper evaluates a
//     simple process-level scheme (one configuration per application,
//     selected by a profiling compiler/runtime and reloaded on context
//     switches); Section 6 sketches a hardware interval predictor with
//     confidence, implemented here as IntervalPolicy;
//   - the engines, one per computation: ProfileCacheTPI and ProfileQueueTPI
//     profile every configuration of the adaptive Dcache hierarchy and
//     instruction queue in one shared-stream pass (the process-level
//     scheme, Section 5), ProfileCombined does the same for the joint
//     Figure 5 processor, and RunPolicyStudy, ProfileQueueTraces and
//     MultiPolicy run policies over intervals, charging reconfiguration and
//     clock-switch overheads (Section 6).
//
// The stepwise per-configuration machines those engines replace
// (QueueMachine, CacheMachine, CombinedMachine and the drive loop) live in
// this package's _test.go files as differential oracles.
package core

import "fmt"

// Config is one selectable configuration of an adaptive structure.
type Config struct {
	// ID indexes the configuration within its structure.
	ID int
	// Label is human-readable ("L1=16KB 4-way", "IQ=64").
	Label string
	// CycleNS is the processor cycle time this configuration imposes
	// (worst-case timing analysis of the structure at this size).
	CycleNS float64
}

// Sample is one interval measurement from the monitoring hardware.
type Sample struct {
	// Interval is the interval's ordinal number.
	Interval int64
	// Config is the configuration the interval ran under.
	Config int
	// TPI is the measured time per instruction in ns.
	TPI float64
	// IPC is the measured instructions per cycle.
	IPC float64
}

// Monitor is the performance-monitoring state a Policy may consult: the
// recent samples (most recent last) and the active configuration.
type Monitor struct {
	// Window holds the most recent samples, oldest first.
	Window []Sample
	// Current is the active configuration ID.
	Current int
	maxLen  int
}

// NewMonitor creates a monitor retaining up to n samples. The window is
// preallocated at its retention capacity so Record never allocates: it is
// called once per simulated interval by every race column.
func NewMonitor(n int) *Monitor {
	if n < 1 {
		n = 1
	}
	return &Monitor{maxLen: n, Window: make([]Sample, 0, n)}
}

// Record appends a sample, evicting the oldest beyond the retention window.
// Eviction happens before the append so the slice never exceeds its
// preallocated capacity — Record stays allocation-free in steady state.
func (m *Monitor) Record(s Sample) {
	if len(m.Window) >= m.maxLen {
		n := copy(m.Window, m.Window[len(m.Window)-m.maxLen+1:])
		m.Window = m.Window[:n]
	}
	m.Window = append(m.Window, s)
	m.Current = s.Config
}

// Last returns the most recent sample and whether one exists.
func (m *Monitor) Last() (Sample, bool) {
	if len(m.Window) == 0 {
		return Sample{}, false
	}
	return m.Window[len(m.Window)-1], true
}

// Policy is a configuration-management heuristic: after each interval it
// chooses the configuration for the next interval.
type Policy interface {
	// Name identifies the policy for reporting.
	Name() string
	// Next returns the configuration to run the next interval under.
	Next(m *Monitor) int
}

// validateConfigs checks a configuration table: positive cycle times and
// unique IDs.
func validateConfigs(configs []Config) error {
	if len(configs) == 0 {
		return fmt.Errorf("core: empty configuration table")
	}
	seen := make(map[int]bool, len(configs))
	for _, c := range configs {
		if c.CycleNS <= 0 {
			return fmt.Errorf("core: config %d (%s) has cycle %v", c.ID, c.Label, c.CycleNS)
		}
		if seen[c.ID] {
			return fmt.Errorf("core: duplicate config id %d", c.ID)
		}
		seen[c.ID] = true
	}
	return nil
}

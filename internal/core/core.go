// Package core implements the paper's primary contribution: the
// Complexity-Adaptive Processor (CAP) control plane.
//
// A CAP intermixes fixed hardware structures with complexity-adaptive
// structures (CASes) whose size — and therefore whose worst-case timing —
// can be changed at runtime, together with a dynamic clock that lets every
// configuration run at its full clock-rate potential (paper Section 4). The
// pieces modeled here:
//
//   - Monitor: the on-chip performance-monitoring hardware, which measures
//     TPI (time per instruction = cycle time / IPC, the paper's metric) over
//     fixed instruction intervals and holds the last interval's sample;
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
// (QueueMachine, CacheMachine, CombinedMachine and the drive loop), with the
// Config table they select from, live in this package's _test.go files as
// differential oracles.
package core

// Sample is one interval measurement from the monitoring hardware.
type Sample struct {
	// Config is the configuration the interval ran under.
	Config int
	// TPI is the measured time per instruction in ns.
	TPI float64
}

// Monitor is the performance-monitoring state a Policy may consult: the
// last interval's sample and the active configuration. The zero value is a
// monitor on configuration 0 with no sample yet.
type Monitor struct {
	// Current is the active configuration ID.
	Current int
	last    Sample
	have    bool
}

// Record stores an interval's sample as the last one and makes its
// configuration current.
func (m *Monitor) Record(s Sample) {
	m.last, m.have = s, true
	m.Current = s.Config
}

// Last returns the most recent sample and whether one exists.
func (m *Monitor) Last() (Sample, bool) { return m.last, m.have }

// Policy is a configuration-management heuristic: after each interval it
// chooses the configuration for the next interval.
type Policy interface {
	// Name identifies the policy for reporting.
	Name() string
	// Next returns the configuration to run the next interval under.
	Next(m *Monitor) int
}

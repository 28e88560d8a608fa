// Package clock models the CAP's dynamic clocking system (paper Sections 4
// and 4.2): a set of predetermined clock sources — one per worst-case timing
// analysis of each combination of adaptive-structure configurations — behind
// a clock hold-and-multiplex scheme. Reliably stopping one clock and
// starting another costs tens of cycles (the paper's estimate), which this
// package accounts for.
package clock

import "fmt"

// Source is one selectable processor clock.
type Source struct {
	// ID identifies the source; it conventionally equals the adaptive
	// structure's configuration index that requires it.
	ID int
	// PeriodNS is the clock period in nanoseconds.
	PeriodNS float64
	// Label names the configuration ("16KB 4-way L1", "64-entry IQ").
	Label string
}

// DefaultSwitchPenaltyCycles is the paper's "tens of cycles" estimate for
// pausing the active clock and reliably enabling the new one.
const DefaultSwitchPenaltyCycles = 20

// System is the dynamic clock: a source table plus the currently selected
// source and a switch count. Callers sum the nanoseconds Select and Advance
// return.
type System struct {
	sources  map[int]Source
	active   int
	penalty  int
	switches int64
}

// NewSystem builds a dynamic clock from the given sources, initially running
// on initial. penaltyCycles < 0 selects the default penalty.
func NewSystem(sources []Source, initial int, penaltyCycles int) (*System, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("clock: no sources")
	}
	if penaltyCycles < 0 {
		penaltyCycles = DefaultSwitchPenaltyCycles
	}
	m := make(map[int]Source, len(sources))
	for _, s := range sources {
		if s.PeriodNS <= 0 {
			return nil, fmt.Errorf("clock: source %d has period %v", s.ID, s.PeriodNS)
		}
		if _, dup := m[s.ID]; dup {
			return nil, fmt.Errorf("clock: duplicate source id %d", s.ID)
		}
		m[s.ID] = s
	}
	if _, ok := m[initial]; !ok {
		return nil, fmt.Errorf("clock: initial source %d not in table", initial)
	}
	return &System{sources: m, active: initial, penalty: penaltyCycles}, nil
}

// Select switches to the source with the given ID, charging the switch
// penalty (at the OLD clock's period: the old clock must be reliably stopped
// before the new one starts). Selecting the active source is free. It
// returns the penalty charged in nanoseconds.
func (s *System) Select(id int) (float64, error) {
	if _, ok := s.sources[id]; !ok {
		return 0, fmt.Errorf("clock: unknown source %d", id)
	}
	if id == s.active {
		return 0, nil
	}
	pen := float64(s.penalty) * s.sources[s.active].PeriodNS
	s.active = id
	s.switches++
	return pen, nil
}

// Advance returns the nanoseconds n cycles of execution take at the active
// clock.
func (s *System) Advance(n int64) float64 {
	if n < 0 {
		n = 0
	}
	return float64(n) * s.sources[s.active].PeriodNS
}

// Switches returns how many clock switches have occurred.
func (s *System) Switches() int64 { return s.switches }

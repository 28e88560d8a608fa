package clock

import (
	"math"
	"testing"
)

func sources() []Source {
	return []Source{
		{ID: 0, PeriodNS: 0.45, Label: "fast"},
		{ID: 1, PeriodNS: 0.60, Label: "mid"},
		{ID: 2, PeriodNS: 0.80, Label: "slow"},
	}
}

func mustSystem(t *testing.T, sources []Source, initial, penaltyCycles int) *System {
	t.Helper()
	s, err := NewSystem(sources, initial, penaltyCycles)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, 0, -1); err == nil {
		t.Error("empty source table accepted")
	}
	if _, err := NewSystem(sources(), 7, -1); err == nil {
		t.Error("unknown initial source accepted")
	}
	dup := append(sources(), Source{ID: 0, PeriodNS: 1})
	if _, err := NewSystem(dup, 0, -1); err == nil {
		t.Error("duplicate source id accepted")
	}
	bad := []Source{{ID: 0, PeriodNS: 0}}
	if _, err := NewSystem(bad, 0, -1); err == nil {
		t.Error("zero period accepted")
	}
}

func TestDefaultPenalty(t *testing.T) {
	s := mustSystem(t, sources(), 0, -1)
	pen, err := s.Select(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := DefaultSwitchPenaltyCycles * 0.45; math.Abs(pen-want) > 1e-9 {
		t.Errorf("penalty %v ns, want the default %d cycles at 0.45 ns", pen, DefaultSwitchPenaltyCycles)
	}
}

func TestAdvanceAccumulatesTime(t *testing.T) {
	s := mustSystem(t, sources(), 1, 0)
	dt := s.Advance(100)
	if math.Abs(dt-60) > 1e-9 {
		t.Errorf("100 cycles at 0.6ns = %v, want 60", dt)
	}
	if s.Advance(-5) != 0 {
		t.Error("negative advance should be a no-op")
	}
}

func TestSelectChargesPenaltyAtOldClock(t *testing.T) {
	s := mustSystem(t, sources(), 2, 10) // slow (0.8ns) initially
	pen, err := s.Select(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pen-8.0) > 1e-9 { // 10 cycles * 0.8 ns
		t.Errorf("penalty %v ns, want 8 (old clock)", pen)
	}
	if dt := s.Advance(100); math.Abs(dt-45) > 1e-9 {
		t.Errorf("100 cycles after the switch took %v ns, want 45 (new clock)", dt)
	}
	if s.Switches() != 1 {
		t.Errorf("switch count %d", s.Switches())
	}
}

func TestSelectSameSourceFree(t *testing.T) {
	s := mustSystem(t, sources(), 1, 10)
	pen, err := s.Select(1)
	if err != nil || pen != 0 {
		t.Errorf("same-source select: pen=%v err=%v", pen, err)
	}
	if s.Switches() != 0 {
		t.Error("same-source select counted as a switch")
	}
}

func TestSelectUnknown(t *testing.T) {
	s := mustSystem(t, sources(), 0, 10)
	if _, err := s.Select(9); err == nil {
		t.Error("unknown source accepted")
	}
}

func TestFullScenario(t *testing.T) {
	s := mustSystem(t, sources(), 0, 20)
	total := s.Advance(1000) // 450 ns
	pen, err := s.Select(2)  // +20*0.45 = 9 ns
	if err != nil {
		t.Fatal(err)
	}
	total += pen + s.Advance(1000) // 800 ns
	if want := 450.0 + 9.0 + 800.0; math.Abs(total-want) > 1e-9 {
		t.Errorf("total time %v, want %v", total, want)
	}
}

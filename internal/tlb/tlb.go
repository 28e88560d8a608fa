// Package tlb implements a complexity-adaptive translation lookaside
// buffer, one of the structures the CAP paper names as the next targets for
// complexity-adaptive techniques (Sections 4.2 and 7: "branch predictor
// tables and TLBs may consist of single and two cycle lookup elements").
//
// The TLB is a fully associative CAM of entry groups. Instead of disabling
// the groups beyond the primary section, the design keeps them powered as a
// *backup* section with a one-cycle-longer lookup: the paper's suggestion
// for making better use of silicon than hard disables. An access that hits
// the primary section costs one cycle; a backup hit costs an extra cycle and
// promotes the entry into the primary section (swapping with the primary
// LRU, preserving exclusivity); a full miss pays the page-walk penalty.
//
// The adaptive knob is the primary-section size: a larger primary raises the
// single-cycle hit rate but, because the CAM's match spans the primary
// section, stretches the processor cycle exactly like the instruction
// queue's wakeup. The same TPI tradeoff the paper studies for caches and
// queues therefore applies here, and the structure slots into the same
// configuration-management machinery.
package tlb

import (
	"fmt"

	"capsim/internal/palacharla"
	"capsim/internal/tech"
)

// Params describes the adaptive TLB.
type Params struct {
	// Groups is the number of entry groups built.
	Groups int
	// GroupEntries is the number of translations per group.
	GroupEntries int
	// PageBytes is the page size.
	PageBytes int
	// WalkCycles is the page-walk penalty in cycles at the fastest clock
	// (scaled to the active clock by the evaluation).
	WalkCycles int
	// Feature selects the process generation for timing.
	Feature tech.FeatureSize
}

// DefaultParams returns a 128-entry TLB in four 32-entry groups with 4 KB
// pages — an R10000-class configuration.
func DefaultParams() Params {
	return Params{
		Groups:       4,
		GroupEntries: 32,
		PageBytes:    4096,
		WalkCycles:   30,
		Feature:      tech.Micron018,
	}
}

// Validate reports whether the parameters are consistent.
func (p Params) Validate() error {
	switch {
	case p.Groups < 1:
		return fmt.Errorf("tlb: groups %d must be >= 1", p.Groups)
	case p.GroupEntries < 1:
		return fmt.Errorf("tlb: group entries %d must be >= 1", p.GroupEntries)
	case p.PageBytes <= 0 || p.PageBytes&(p.PageBytes-1) != 0:
		return fmt.Errorf("tlb: page size %d must be a positive power of two", p.PageBytes)
	case p.WalkCycles < 1:
		return fmt.Errorf("tlb: walk cycles %d must be >= 1", p.WalkCycles)
	case !p.Feature.Valid():
		return fmt.Errorf("tlb: feature size %v must be finite and positive", float64(p.Feature))
	}
	return nil
}

// TotalEntries returns the built capacity.
func (p Params) TotalEntries() int { return p.Groups * p.GroupEntries }

// Outcome classifies one lookup.
type Outcome int

// Lookup outcomes.
const (
	PrimaryHit Outcome = iota
	BackupHit
	Walk
)

func (o Outcome) String() string {
	switch o {
	case PrimaryHit:
		return "primary"
	case BackupHit:
		return "backup"
	default:
		return "walk"
	}
}

// Stats accumulates lookup outcomes.
type Stats struct {
	Lookups     uint64
	PrimaryHits uint64
	BackupHits  uint64
	Walks       uint64
}

// entry is one translation.
type entry struct {
	vpn   uint64
	valid bool
	lru   uint64
}

// TLB is the runtime state.
type TLB struct {
	p       Params
	primary int  // groups in the single-cycle section
	backup  bool // whether non-primary groups serve as a backup section
	entries []entry
	stamp   uint64
	stats   Stats
}

// New builds a TLB with `primary` groups in the single-cycle section and
// the remaining groups as a two-cycle backup section (the paper's Section
// 4.2 suggestion for using silicon that would otherwise be disabled).
func New(p Params, primary int) (*TLB, error) {
	return build(p, primary, true)
}

// NewWithoutBackup builds a TLB whose non-primary groups are hard-disabled:
// only primary entries exist, and evictions are dropped. This is the naive
// adaptive design the backup strategy improves on.
func NewWithoutBackup(p Params, primary int) (*TLB, error) {
	return build(p, primary, false)
}

func build(p Params, primary int, backup bool) (*TLB, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if primary < 1 || primary > p.Groups {
		return nil, fmt.Errorf("tlb: primary %d outside [1,%d]", primary, p.Groups)
	}
	return &TLB{
		p:       p,
		primary: primary,
		backup:  backup,
		entries: make([]entry, p.TotalEntries()),
	}, nil
}

// Stats returns accumulated statistics.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes counters, keeping contents.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// primaryEntries returns the entry count of the single-cycle section.
func (t *TLB) primaryEntries() int { return t.primary * t.p.GroupEntries }

// Lookup translates the address, updating contents and statistics.
func (t *TLB) Lookup(addr uint64) Outcome {
	t.stamp++
	t.stats.Lookups++
	vpn := addr / uint64(t.p.PageBytes)
	pe := t.primaryEntries()

	limit := len(t.entries)
	if !t.backup {
		limit = pe
	}
	hit := -1
	for i := 0; i < limit; i++ {
		if t.entries[i].valid && t.entries[i].vpn == vpn {
			hit = i
			break
		}
	}
	switch {
	case hit >= 0 && hit < pe:
		t.stats.PrimaryHits++
		t.entries[hit].lru = t.stamp
		return PrimaryHit
	case hit >= 0:
		// Backup hit: promote into the primary section by swapping with
		// its LRU entry (the paper's on-deck/backup exchange).
		t.stats.BackupHits++
		victim := t.lru(0, pe)
		t.entries[victim], t.entries[hit] = t.entries[hit], t.entries[victim]
		t.entries[victim].lru = t.stamp
		t.entries[hit].lru = t.stamp
		return BackupHit
	default:
		t.stats.Walks++
		victim := t.lru(0, pe)
		if t.entries[victim].valid && t.backup && t.p.Groups > t.primary {
			// Demote the displaced translation into the backup
			// section rather than dropping it.
			bv := t.lru(pe, len(t.entries))
			t.entries[bv] = t.entries[victim]
		}
		t.entries[victim] = entry{vpn: vpn, valid: true, lru: t.stamp}
		return Walk
	}
}

// lru returns the least-recently-used index in [lo, hi), preferring invalid
// slots.
func (t *TLB) lru(lo, hi int) int {
	best := lo
	for i := lo; i < hi; i++ {
		if !t.entries[i].valid {
			return i
		}
		if t.entries[i].lru < t.entries[best].lru {
			best = i
		}
	}
	return best
}

// CheckUnique verifies that no VPN is cached twice.
func (t *TLB) CheckUnique() error {
	seen := map[uint64]int{}
	for i, e := range t.entries {
		if !e.valid {
			continue
		}
		if j, dup := seen[e.vpn]; dup {
			return fmt.Errorf("tlb: vpn %#x in entries %d and %d", e.vpn, j, i)
		}
		seen[e.vpn] = i
	}
	return nil
}

// LookupCycle returns the single-cycle lookup delay (ns) the primary section
// imposes on the clock: a CAM match across primary entries, reusing the
// queue wakeup model (a TLB entry is a wide CAM row like a queue entry's tag
// field).
func LookupCycle(p Params, primaryGroups int, tp tech.Params) float64 {
	entries := primaryGroups * p.GroupEntries
	return palacharla.WakeupDelay(palacharla.Queue{Entries: entries, IssueWidth: 2}, tp) * 1.2
}

// Evaluate converts statistics into an average lookup time in ns for the
// configuration: primary hits cost one cycle, backup hits two, walks
// WalkCycles.
func Evaluate(p Params, primaryGroups int, s Stats) float64 {
	tp := tech.ForFeature(p.Feature)
	cyc := LookupCycle(p, primaryGroups, tp)
	if s.Lookups == 0 {
		return cyc
	}
	cycles := float64(s.PrimaryHits) + 2*float64(s.BackupHits) +
		float64(s.Walks)*float64(p.WalkCycles)
	return cyc * cycles / float64(s.Lookups)
}

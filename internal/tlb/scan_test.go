package tlb

import (
	"fmt"
	"testing"

	"capsim/internal/rng"
)

// scanLookup is Lookup without the MRU check: the full CAM scan on every
// reference. It leaves t.mru untouched and is the differential oracle that
// TestLookupMatchesScan and FuzzTLB hold Lookup to.
func (t *TLB) scanLookup(addr uint64) Outcome {
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
			bv := t.lru(pe, len(t.entries))
			t.entries[bv] = t.entries[victim]
		}
		t.entries[victim] = entry{vpn: vpn, valid: true, lru: t.stamp}
		return Walk
	}
}

// scanPair is one configuration driven twice: got through Lookup, want
// through scanLookup.
type scanPair struct {
	got, want *TLB
}

// allPairs builds a pair for every primary count of p in both modes.
func allPairs(t testing.TB, p Params) []scanPair {
	var pairs []scanPair
	for _, backup := range []bool{false, true} {
		for g := 1; g <= p.Groups; g++ {
			got, err := build(p, g, backup)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := build(p, g, backup)
			pairs = append(pairs, scanPair{got, want})
		}
	}
	return pairs
}

// step looks addr up on both sides and fails on the first difference in
// outcome or statistics and, when full is set, in either section's contents
// or on a duplicate translation.
func (sp scanPair) step(t testing.TB, i int, addr uint64, full bool) {
	t.Helper()
	g, w := sp.got.Lookup(addr), sp.want.scanLookup(addr)
	cfg := func() string {
		return fmt.Sprintf("backup=%v primary=%d", sp.got.backup, sp.got.primary)
	}
	if g != w {
		t.Fatalf("%s lookup %d (%#x): outcome %v, scan %v", cfg(), i, addr, g, w)
	}
	if gs, ws := sp.got.Stats(), sp.want.Stats(); gs != ws {
		t.Fatalf("%s lookup %d: stats %+v, scan %+v", cfg(), i, gs, ws)
	}
	if !full {
		return
	}
	pe := sp.got.primaryEntries()
	for j := range sp.got.entries {
		if sp.got.entries[j] != sp.want.entries[j] {
			section := "primary"
			if j >= pe {
				section = "backup"
			}
			t.Fatalf("%s lookup %d: %s entry %d is %+v, scan %+v",
				cfg(), i, section, j, sp.got.entries[j], sp.want.entries[j])
		}
	}
	if err := sp.got.CheckUnique(); err != nil {
		t.Fatalf("%s lookup %d: %v", cfg(), i, err)
	}
	if err := sp.want.CheckUnique(); err != nil {
		t.Fatalf("%s lookup %d (scan): %v", cfg(), i, err)
	}
}

// TestLookupMatchesScan: at the default geometry, every primary size in
// both modes, Lookup's MRU check agrees with the full scan on every
// reference (contents and uniqueness every 50th) of a stream mixing same-page runs, a hot set that overflows the
// smaller primaries, and a cold tail wider than the whole TLB.
func TestLookupMatchesScan(t *testing.T) {
	p := DefaultParams()
	pairs := allPairs(t, p)
	r := rng.New(1998)
	page := uint64(0)
	n := 20000
	if testing.Short() {
		n = 5000
	}
	for i := 0; i < n; i++ {
		switch {
		case r.Bool(0.8): // same page, another offset
		case r.Bool(0.7):
			page = uint64(r.Intn(96))
		default:
			page = 1000 + uint64(r.Intn(400))
		}
		addr := page*uint64(p.PageBytes) + uint64(r.Intn(p.PageBytes))
		for _, sp := range pairs {
			sp.step(t, i, addr, i%50 == 0)
		}
	}
}

// FuzzTLB holds Lookup to the scan oracle on byte-coded page streams. The
// first two bytes pick a small geometry (1-4 groups of 1-8 entries, so
// evictions and demotions are frequent); every later byte is one lookup,
// coded as a 2-bit operation and a 6-bit argument:
//
//	0: the last page again, at offset arg*64 (same-page runs)
//	1: hot-set page arg%12
//	2: a fresh page never touched before
//	3: page arg of a 64-page range
//
// Every primary count runs in both modes, and each lookup is compared on
// outcome, statistics, per-section contents and uniqueness.
func FuzzTLB(f *testing.F) {
	f.Add([]byte{3, 7, 0x40, 0x41, 0x42, 0x00, 0x43, 0x80, 0x80, 0x40, 0x01, 0xc5, 0x45})
	f.Add([]byte{0, 0, 0x80, 0x00, 0x80, 0x00, 0x40, 0x41, 0x40})
	f.Add([]byte{1, 3, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x00})
	f.Add([]byte{2, 1, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc0, 0xc1, 0x00, 0x3f, 0xc7, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		p := DefaultParams()
		p.Groups = 1 + int(data[0])%4
		p.GroupEntries = 1 + int(data[1])%8
		pairs := allPairs(t, p)
		page, fresh := uint64(0), uint64(1<<20)
		for i, b := range data[2:] {
			op, arg := b>>6, uint64(b&63)
			offset := uint64(0)
			switch op {
			case 0:
				offset = arg * 64
			case 1:
				page = arg % 12
			case 2:
				fresh++
				page = fresh
			case 3:
				page = arg
			}
			addr := page*uint64(p.PageBytes) + offset
			for _, sp := range pairs {
				sp.step(t, i, addr, true)
			}
		}
	})
}

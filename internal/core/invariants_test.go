package core

import (
	"context"
	"fmt"
	"testing"

	"capsim/internal/cache"
	"capsim/internal/ooo"
	"capsim/internal/tech"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// The engines' member cores are checked with ooo.Core.CheckInvariants on
// the production paths themselves, after every interval: the race family's
// lockstep extension (resizes between RunEach rounds), the joint kernel's
// RunEachWithLoads rounds, and the profile pass's plain RunEach.

var invariantSeeds = []uint64{1998, 1}

// checkMembers fails on the first member of mc whose invariants break.
func checkMembers(t *testing.T, what string, iv int64, mc *ooo.MultiCore) {
	t.Helper()
	for j, c := range mc.Cores() {
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: member %d after interval %d: %v", what, j, iv, err)
		}
	}
}

// TestRaceFamilyInvariants extends a fresh zoo-roster family one interval at
// a time on the two phase-modulated profiles, whose contenders resize often,
// and checks every member core after each interval. It also requires that
// the run both grew and shrank windows, so the resize paths were exercised.
func TestRaceFamilyInvariants(t *testing.T) {
	const intervals = 200
	ctx := context.Background()
	for _, seed := range invariantSeeds {
		for _, app := range []string{"flutter", "squall"} {
			what := fmt.Sprintf("%s seed %d", app, seed)
			mp, err := NewMultiPolicy(workload.MustByName(app), seed, zooMenuSizes, 2000, -1, tech.Micron018)
			if err != nil {
				t.Fatal(err)
			}
			f, err := mp.newRaceFamily(zooRoster())
			if err != nil {
				t.Fatal(err)
			}
			for iv := int64(1); iv <= intervals; iv++ {
				if _, err := f.steps(ctx, iv); err != nil {
					t.Fatalf("%s: interval %d: %v", what, iv, err)
				}
				checkMembers(t, what, iv, f.mc)
			}
			grows, shrinks := 0, 0
			for _, col := range f.log {
				for iv := 1; iv < len(col); iv++ {
					switch prev, cur := col[iv-1].cfg, col[iv].cfg; {
					case cur > prev:
						grows++
					case cur < prev:
						shrinks++
					}
				}
			}
			if grows == 0 || shrinks == 0 {
				t.Errorf("%s: %d grows and %d shrinks over %d intervals, want both", what, grows, shrinks, intervals)
			}
		}
	}
}

// TestMultiCombinedInvariants checks every member core after each
// RunInterval of the joint kernel over ablation-combined's grid: queue
// sizes {16, 64, 128} crossed with boundaries {1, 2, 6, 8}.
func TestMultiCombinedInvariants(t *testing.T) {
	const intervals, n = 12, 2000
	sizes := []int{16, 64, 128}
	var points []CombinedConfig
	for _, k := range []int{1, 2, 6, 8} {
		for _, w := range sizes {
			points = append(points, CombinedConfig{QueueEntries: w, Boundary: k})
		}
	}
	for _, seed := range invariantSeeds {
		for _, app := range []string{"gcc", "stereo", "appcg", "compress", "swim"} {
			m, err := NewMultiCombined(workload.MustByName(app), seed, sizes, cache.PaperParams(), PaperMaxBoundary,
				points, intervals, n, tech.Micron018)
			if err != nil {
				t.Fatal(err)
			}
			for iv := int64(1); iv <= intervals; iv++ {
				m.RunInterval(n)
				checkMembers(t, fmt.Sprintf("%s seed %d", app, seed), iv, m.mc)
			}
		}
	}
}

// TestProfileQueueInvariants checks a ProfileQueueTPI-shaped MultiCore (one
// member per paper queue size over the application's instruction store)
// after each of several RunEach rounds.
func TestProfileQueueInvariants(t *testing.T) {
	cfgs := make([]ooo.Config, len(PaperQueueSizes()))
	for i, w := range PaperQueueSizes() {
		cfgs[i] = ooo.PaperConfig(w)
	}
	for _, seed := range invariantSeeds {
		for _, app := range []string{"gcc", "compress", "swim", "turb3d"} {
			mc, err := ooo.NewMultiCore(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			src := trace.OpsFor(workload.MustByName(app), seed).Cursor()
			for iv := int64(1); iv <= 10; iv++ {
				mc.RunEach(src, 3000)
				checkMembers(t, fmt.Sprintf("%s seed %d", app, seed), iv, mc)
			}
		}
	}
}

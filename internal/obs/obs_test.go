package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// withEnabled runs fn with metric recording forced on, restoring the prior
// state afterwards.
func withEnabled(t *testing.T, fn func()) {
	t.Helper()
	prev := Enabled()
	SetEnabled(true)
	defer SetEnabled(prev)
	fn()
}

func TestCounterDisabledIsNoop(t *testing.T) {
	r := &Registry{}
	c := r.NewCounter("t.counter")
	SetEnabled(false)
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter accumulated %d", got)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := &Registry{}
	r.NewCounter("dup")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	r.NewHistogram("dup") // duplicate across kinds must still panic
}

func TestRegistryEmptyNamePanics(t *testing.T) {
	r := &Registry{}
	defer func() {
		if recover() == nil {
			t.Fatal("empty name did not panic")
		}
	}()
	r.NewCounter("")
}

func TestSnapshotDiffCounters(t *testing.T) {
	r := &Registry{}
	a := r.NewCounter("t.a")
	b := r.NewCounter("t.b")
	withEnabled(t, func() {
		a.Add(5)
		before := r.TakeSnapshot()
		a.Add(2)
		b.Add(9)
		after := r.TakeSnapshot()
		d := after.DiffCounters(before)
		if d["t.a"] != 2 || d["t.b"] != 9 {
			t.Fatalf("diff = %v", d)
		}
		if len(d) != 2 {
			t.Fatalf("diff kept zero deltas: %v", d)
		}
		// Snapshots name every registered metric, even zero ones.
		if _, ok := before.Counters["t.b"]; !ok {
			t.Fatal("snapshot omitted zero counter")
		}
	})
}

func TestRegistryReset(t *testing.T) {
	r := &Registry{}
	c := r.NewCounter("t.reset")
	h := r.NewHistogram("t.reset.h")
	withEnabled(t, func() {
		c.Add(3)
		h.Observe(100)
		r.Reset()
		if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
			t.Fatalf("reset left values: c=%d h=%d/%d", c.Value(), h.Count(), h.Sum())
		}
	})
}

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest()
	if m.Schema != ManifestSchema || m.Build.GoVersion == "" || m.Command == "" {
		t.Fatalf("manifest header incomplete: %+v", m)
	}
	m.Experiments = append(m.Experiments, ExperimentRecord{ID: "fig7", WallNS: 42})
	m.Final = TakeSnapshot()
	var sb strings.Builder
	if err := m.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("manifest JSON invalid: %v", err)
	}
	if back.Schema != ManifestSchema || len(back.Experiments) != 1 || back.Experiments[0].ID != "fig7" {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if !strings.HasSuffix(sb.String(), "\n") {
		t.Fatal("manifest must end with newline")
	}
}

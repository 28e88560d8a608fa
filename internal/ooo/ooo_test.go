package ooo

import (
	"testing"
	"testing/quick"

	"capsim/internal/workload"
)

// Step advances the machine by one cycle: dispatch up to IssueWidth new
// instructions into free window entries, then issue the instructions whose
// issue cycle this is. A target already met stops the kernel after one cycle.
// Tests use it to leave a core mid-flight at a chosen cycle.
func (c *Core) Step(stream workload.InstrSource) {
	c.run(c.fetch(stream), 0, c.cfg.WindowSize, &c.stats.WindowFullCy)
}

// stream builds a synthetic benchmark stream from raw ILP parameters.
func stream(t *testing.T, p workload.ILPParams, seed uint64) *workload.InstrStream {
	t.Helper()
	b := workload.Benchmark{Name: "test", ILP: workload.ILPProfile{Base: p}}
	return workload.NewInstrStream(b, seed)
}

func chainParams(lat int) workload.ILPParams {
	return workload.ILPParams{
		SrcWeights: [3]float64{0, 1, 0},
		Dists:      []workload.GeomComponent{{Mean: 1, Weight: 1}},
		Lats:       []workload.LatComponent{{Cycles: lat, Weight: 1}},
	}
}

func independentParams(lat int) workload.ILPParams {
	return workload.ILPParams{
		SrcWeights: [3]float64{1, 0, 0},
		Dists:      []workload.GeomComponent{{Mean: 1, Weight: 1}},
		Lats:       []workload.LatComponent{{Cycles: lat, Weight: 1}},
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{WindowSize: 16, IssueWidth: 8}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (Config{WindowSize: 0, IssueWidth: 8}).Validate(); err == nil {
		t.Error("zero window accepted")
	}
	if err := (Config{WindowSize: 16, IssueWidth: 0}).Validate(); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := New(Config{WindowSize: maxDist, IssueWidth: 8}); err == nil {
		t.Error("oversized window accepted")
	}
}

func TestSerialChainIPC(t *testing.T) {
	// A pure dependence chain with latency L issues one instruction every
	// L cycles regardless of window size.
	for _, lat := range []int{1, 2, 4} {
		for _, w := range []int{16, 64, 128} {
			c := MustNew(PaperConfig(w))
			st := c.Run(stream(t, chainParams(lat), 1), 5000)
			want := 1.0 / float64(lat)
			if got := st.IPC(); got < want*0.98 || got > want*1.02 {
				t.Errorf("chain lat=%d W=%d: IPC %v, want %v", lat, w, got, want)
			}
		}
	}
}

func TestIndependentStreamSaturatesIssueWidth(t *testing.T) {
	c := MustNew(PaperConfig(64))
	st := c.Run(stream(t, independentParams(1), 2), 20000)
	if got := st.IPC(); got < 7.9 {
		t.Errorf("independent stream IPC %v, want ~8 (issue width)", got)
	}
}

func TestIssueWidthRespected(t *testing.T) {
	c := MustNew(Config{WindowSize: 64, IssueWidth: 4})
	st := c.Run(stream(t, independentParams(1), 3), 20000)
	if got := st.IPC(); got > 4.001 {
		t.Errorf("IPC %v exceeds issue width 4", got)
	}
	if got := st.IPC(); got < 3.9 {
		t.Errorf("IPC %v far below achievable 4", got)
	}
}

func TestBackToBackDependentIssue(t *testing.T) {
	// Single-cycle producer-consumer chains must issue in consecutive
	// cycles (IPC 1.0), the property the atomic wakeup+select protects.
	c := MustNew(PaperConfig(32))
	st := c.Run(stream(t, chainParams(1), 4), 5000)
	if got := st.IPC(); got < 0.99 {
		t.Errorf("back-to-back chain IPC %v, want 1.0", got)
	}
}

func TestLargerWindowNeverHurtsIPC(t *testing.T) {
	// Pure-IPC monotonicity across window sizes for a realistic stream.
	b, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, w := range []int{16, 32, 64, 128} {
		c := MustNew(PaperConfig(w))
		s := workload.NewInstrStream(b, 5)
		ipc := c.Run(s, 100000).IPC()
		if ipc < prev*0.995 { // tolerate sub-percent noise
			t.Errorf("W=%d IPC %v below smaller window's %v", w, ipc, prev)
		}
		prev = ipc
	}
}

func TestWindowFullAccounting(t *testing.T) {
	// A tiny window running a slow chain must report dispatch-blocked
	// cycles.
	c := MustNew(Config{WindowSize: 4, IssueWidth: 8})
	st := c.Run(stream(t, chainParams(4), 6), 2000)
	if st.WindowFullCy == 0 {
		t.Error("no window-full cycles recorded for a saturated tiny window")
	}
}

func TestDrain(t *testing.T) {
	c := MustNew(PaperConfig(64))
	s := stream(t, chainParams(4), 7)
	for i := 0; i < 30; i++ {
		c.Step(s)
	}
	if c.Occupancy() == 0 {
		t.Fatal("window empty after 30 cycles of a slow chain")
	}
	before := c.Stats().Issued
	c.Drain(8)
	if c.Occupancy() > 8 {
		t.Errorf("occupancy %d after Drain(8)", c.Occupancy())
	}
	if c.Stats().DrainStalls == 0 {
		t.Error("drain stalls not recorded")
	}
	if c.Stats().Issued <= before {
		t.Error("drain issued nothing")
	}
}

func TestResize(t *testing.T) {
	c := MustNew(PaperConfig(64))
	s := stream(t, chainParams(2), 8)
	for i := 0; i < 40; i++ {
		c.Step(s)
	}
	if err := c.Resize(16); err != nil {
		t.Fatal(err)
	}
	if c.Occupancy() > 16 {
		t.Errorf("occupancy %d after shrink to 16", c.Occupancy())
	}
	if c.Config().WindowSize != 16 {
		t.Errorf("window size %d", c.Config().WindowSize)
	}
	if err := c.Resize(128); err != nil {
		t.Fatal(err)
	}
	if err := c.Resize(0); err == nil {
		t.Error("Resize(0) accepted")
	}
}

// TestRingSizeIsWindowFree pins why Resize never grows the completion ring:
// the window is small against the dependence horizon and slack, so every
// legal window needs the ring New already allocates. Only the recycle guard
// in run grows it.
func TestRingSizeIsWindowFree(t *testing.T) {
	for w := 1; w < maxDist; w++ {
		if ringSize(w) != ringSize(1) {
			t.Fatalf("ringSize(%d) = %d, ringSize(1) = %d", w, ringSize(w), ringSize(1))
		}
	}
}

func TestRunIssuesExactly(t *testing.T) {
	c := MustNew(PaperConfig(32))
	st := c.Run(stream(t, independentParams(1), 9), 12345)
	if st.Issued < 12345 {
		t.Errorf("issued %d, want >= 12345", st.Issued)
	}
	if st.Issued > 12345+int64(c.Config().IssueWidth) {
		t.Errorf("overshot issue target by %d", st.Issued-12345)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Cycles: 10, Instrs: 20, Issued: 15, DrainStalls: 1, WindowFullCy: 2}
	b := Stats{Cycles: 4, Instrs: 8, Issued: 5, DrainStalls: 1, WindowFullCy: 0}
	d := a.Sub(b)
	if d.Cycles != 6 || d.Instrs != 12 || d.Issued != 10 || d.DrainStalls != 0 || d.WindowFullCy != 2 {
		t.Errorf("delta %+v", d)
	}
}

func TestIPCNeverExceedsWidthProperty(t *testing.T) {
	f := func(seed uint64, wExp, widthExp uint8) bool {
		w := 8 << (wExp % 5)         // 8..128
		width := 2 << (widthExp % 3) // 2..8
		c := MustNew(Config{WindowSize: w, IssueWidth: width})
		b, _ := workload.ByName("perl")
		s := workload.NewInstrStream(b, seed)
		st := c.Run(s, 20000)
		return st.IPC() > 0 && st.IPC() <= float64(width)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicExecution(t *testing.T) {
	b, _ := workload.ByName("turb3d")
	run := func() Stats {
		c := MustNew(PaperConfig(64))
		return c.Run(workload.NewInstrStream(b, 42), 50000)
	}
	if run() != run() {
		t.Error("identical runs produced different statistics")
	}
}

package workload

import (
	"math"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 22 {
		t.Fatalf("registry has %d benchmarks, want 22", len(all))
	}
	if len(CacheApps()) != 21 {
		t.Errorf("cache apps %d, want 21 (all but go)", len(CacheApps()))
	}
	if len(QueueApps()) != 22 {
		t.Errorf("queue apps %d, want 22", len(QueueApps()))
	}
	for _, b := range all {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestPaperWorkloadMembership(t *testing.T) {
	wantInt := []string{"go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex"}
	wantCMU := []string{"airshed", "stereo", "radar"}
	wantFP := []string{"tomcatv", "swim", "su2cor", "hydro2d", "mgrid", "applu", "turb3d", "apsi", "fpppp", "wave5"}
	for _, n := range append(append(append([]string{}, wantInt...), wantCMU...), wantFP...) {
		if _, err := ByName(n); err != nil {
			t.Errorf("missing benchmark %s", n)
		}
	}
	if _, err := ByName("appcg"); err != nil {
		t.Error("missing NAS appcg")
	}
	for _, n := range wantInt {
		if b := MustByName(n); b.FloatingPoint {
			t.Errorf("%s marked floating point", n)
		}
	}
	for _, n := range wantFP {
		if b := MustByName(n); !b.FloatingPoint {
			t.Errorf("%s not marked floating point", n)
		}
	}
}

func TestGoHasNoMemProfile(t *testing.T) {
	// The paper could not instrument go with Atom; it must stay out of
	// the cache experiment.
	if MustByName("go").Mem != nil {
		t.Error("go should have no memory profile")
	}
	for _, b := range CacheApps() {
		if b.Name == "go" {
			t.Error("go appeared in CacheApps")
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestCompressHasLowMemMix(t *testing.T) {
	// Paper Section 5.2.3: compress's loads and stores are under 10% of
	// its instruction mix.
	if rpi := MustByName("compress").Mem.RefsPerInstr; rpi >= 0.10 {
		t.Errorf("compress refs/instr %v, want < 0.10", rpi)
	}
}

func TestPhasedApplications(t *testing.T) {
	turb := MustByName("turb3d")
	if turb.ILP.Kind != PhaseLongBlocks || turb.ILP.Alt == nil {
		t.Error("turb3d must have long-block phases (Figure 12)")
	}
	vort := MustByName("vortex")
	if vort.ILP.Kind != PhaseComposite || vort.ILP.Alt == nil {
		t.Error("vortex must have composite phases (Figure 13)")
	}
	if vort.ILP.PeriodInstrs <= 0 || vort.ILP.SuperPeriodInstrs <= vort.ILP.PeriodInstrs {
		t.Error("vortex super period must exceed its alternation period")
	}
}

func TestMemProfileValidation(t *testing.T) {
	bad := MemProfile{RefsPerInstr: 0.3, Regions: []Region{{Name: "x", Kind: RandomRegion, Bytes: 1024, Weight: 1, Run: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("random region with zero run accepted")
	}
	bad = MemProfile{RefsPerInstr: 0.3, Regions: []Region{{Name: "x", Kind: StreamRegion, Bytes: 1024, Weight: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("stream region with zero stride accepted")
	}
	bad = MemProfile{RefsPerInstr: 1.5, Regions: []Region{{Name: "x", Kind: RandomRegion, Bytes: 1024, Weight: 1, Run: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("refs/instr > 1 accepted")
	}
	bad = MemProfile{RefsPerInstr: 0.3}
	if err := bad.Validate(); err == nil {
		t.Error("empty region list accepted")
	}
}

func TestILPParamsValidation(t *testing.T) {
	good := ILPParams{
		SrcWeights: [3]float64{0.2, 0.4, 0.4},
		Dists:      []GeomComponent{{Mean: 3, Weight: 1}},
		Lats:       []LatComponent{{Cycles: 1, Weight: 1}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := good
	bad.Dists = []GeomComponent{{Mean: 0.5, Weight: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("distance mean < 1 accepted")
	}
	bad = good
	bad.Lats = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty latency mixture accepted")
	}
	bad = good
	bad.SrcWeights = [3]float64{0, 0, 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero source weights accepted")
	}
}

// TestValidateRejectsNonFinite: NaN fails every ordered comparison, so
// checks written as "reject if x < 0" let it through. Each case below must
// be rejected; the sampling tables need finite weights, and a latency above
// 127 would be truncated by Instr.Latency.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ilp := func(mut func(*ILPParams)) ILPParams {
		p := ILPParams{
			SrcWeights: [3]float64{0.2, 0.4, 0.4},
			Dists:      []GeomComponent{{Mean: 3, Weight: 1}},
			Lats:       []LatComponent{{Cycles: 1, Weight: 1}},
		}
		mut(&p)
		return p
	}
	for _, c := range []struct {
		name string
		p    ILPParams
	}{
		{"NaN source weight", ilp(func(p *ILPParams) { p.SrcWeights[1] = nan })},
		{"+Inf source weight", ilp(func(p *ILPParams) { p.SrcWeights[0] = inf })},
		{"-Inf source weight", ilp(func(p *ILPParams) { p.SrcWeights[2] = -inf })},
		{"overflowing source weights", ilp(func(p *ILPParams) { p.SrcWeights = [3]float64{math.MaxFloat64, math.MaxFloat64, 0} })},
		{"NaN distance mean", ilp(func(p *ILPParams) { p.Dists[0].Mean = nan })},
		{"+Inf distance mean", ilp(func(p *ILPParams) { p.Dists[0].Mean = inf })},
		{"NaN distance weight", ilp(func(p *ILPParams) { p.Dists[0].Weight = nan })},
		{"+Inf distance weight", ilp(func(p *ILPParams) { p.Dists[0].Weight = inf })},
		{"overflowing distance weights", ilp(func(p *ILPParams) {
			p.Dists = []GeomComponent{{Mean: 2, Weight: math.MaxFloat64}, {Mean: 3, Weight: math.MaxFloat64}}
		})},
		{"NaN latency weight", ilp(func(p *ILPParams) { p.Lats[0].Weight = nan })},
		{"+Inf latency weight", ilp(func(p *ILPParams) { p.Lats[0].Weight = inf })},
		{"overflowing latency weights", ilp(func(p *ILPParams) {
			p.Lats = []LatComponent{{Cycles: 1, Weight: math.MaxFloat64}, {Cycles: 2, Weight: math.MaxFloat64}}
		})},
		{"latency 128 cycles", ilp(func(p *ILPParams) { p.Lats[0].Cycles = 128 })},
		{"latency 1000 cycles", ilp(func(p *ILPParams) { p.Lats = append(p.Lats, LatComponent{Cycles: 1000, Weight: 1}) })},
	} {
		if err := c.p.Validate(); err == nil {
			t.Errorf("ILPParams with %s accepted", c.name)
		}
	}
	if err := ilp(func(p *ILPParams) { p.Lats[0].Cycles = 127 }).Validate(); err != nil {
		t.Errorf("127-cycle latency rejected: %v", err)
	}

	mem := func(mut func(*MemProfile)) MemProfile {
		m := MemProfile{RefsPerInstr: 0.3, WriteFrac: 0.2, Regions: []Region{{Name: "x", Kind: RandomRegion, Bytes: 1024, Weight: 1, Run: 1}}}
		mut(&m)
		return m
	}
	for _, c := range []struct {
		name string
		m    MemProfile
	}{
		{"NaN refs/instr", mem(func(m *MemProfile) { m.RefsPerInstr = nan })},
		{"NaN write fraction", mem(func(m *MemProfile) { m.WriteFrac = nan })},
		{"+Inf write fraction", mem(func(m *MemProfile) { m.WriteFrac = inf })},
		{"-Inf write fraction", mem(func(m *MemProfile) { m.WriteFrac = -inf })},
		{"NaN region weight", mem(func(m *MemProfile) { m.Regions[0].Weight = nan })},
		{"+Inf region weight", mem(func(m *MemProfile) { m.Regions[0].Weight = inf })},
		{"overflowing region weights", mem(func(m *MemProfile) {
			m.Regions = append(m.Regions, m.Regions[0], m.Regions[0])
			for i := range m.Regions {
				m.Regions[i].Weight = math.MaxFloat64
			}
		})},
	} {
		if err := c.m.Validate(); err == nil {
			t.Errorf("MemProfile with %s accepted", c.name)
		}
	}
}

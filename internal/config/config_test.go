package config

import (
	"math"
	"strings"
	"testing"
)

func TestTableIIParameters(t *testing.T) {
	f := GTX480()
	if f.NumSMs != 15 || f.WarpsPerSM != 48 || f.SchedulersPerSM != 2 {
		t.Fatalf("GTX480 core counts wrong: %+v", f)
	}
	if f.Mem.L1KB != 16 || f.Mem.L1Assoc != 4 {
		t.Fatalf("GTX480 L1 wrong: %+v", f.Mem)
	}
	if f.CoreClockMHz != 700 {
		t.Fatalf("GTX480 clock wrong: %d", f.CoreClockMHz)
	}
	p := GTX1080Ti()
	if p.NumSMs != 28 || p.WarpsPerSM != 64 || p.SchedulersPerSM != 4 {
		t.Fatalf("GTX1080Ti core counts wrong: %+v", p)
	}
	if p.Mem.L1KB != 48 {
		t.Fatalf("GTX1080Ti L1 wrong: %+v", p.Mem)
	}
	// Pascal atomics are much faster per the paper's §II observation.
	if p.Mem.AtomLat >= f.Mem.AtomLat {
		t.Fatal("Pascal atomic serialization must be below Fermi's")
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScaledKeepsPerSMStructure(t *testing.T) {
	g := GTX480().Scaled(4)
	if g.NumSMs != 4 {
		t.Fatalf("NumSMs = %d", g.NumSMs)
	}
	full := GTX480()
	if g.WarpsPerSM != full.WarpsPerSM || g.SchedulersPerSM != full.SchedulersPerSM {
		t.Fatal("scaling must not change per-SM structure")
	}
	if g.Mem.L2Banks >= full.Mem.L2Banks || g.Mem.L2Banks < 1 {
		t.Fatalf("L2 bandwidth should scale down but stay ≥ 1: %d", g.Mem.L2Banks)
	}
	if !strings.Contains(g.Name, "4SM") {
		t.Fatalf("scaled name = %q", g.Name)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Degenerate scales are no-ops.
	if GTX480().Scaled(0).NumSMs != 15 || GTX480().Scaled(99).NumSMs != 15 {
		t.Fatal("invalid scale should be a no-op")
	}
}

func TestValidateRejectsBadGPU(t *testing.T) {
	mutations := []func(*GPU){
		func(g *GPU) { g.NumSMs = 0 },
		func(g *GPU) { g.WarpsPerSM = 0 },
		func(g *GPU) { g.WarpsPerSM = MaxWarpsPerSM + 2 }, // divides among 2 schedulers, too wide for the masks
		func(g *GPU) { g.SchedulersPerSM = 5 },            // 48 % 5 != 0
		func(g *GPU) { g.MaxCTAsPerSM = 0 },
		func(g *GPU) { g.ALULat = 0 },
		func(g *GPU) { g.Mem.L2Banks = 0 },
		func(g *GPU) { g.Mem.L1HitLat = 0 },
		func(g *GPU) { g.Mem.L2Lat = 0 },
		func(g *GPU) { g.Mem.DRAMLat = -1 },
		func(g *GPU) { g.Mem.AtomLat = 0 },
		func(g *GPU) { g.Mem.LSQDepth = 0 },
		func(g *GPU) { g.MaxCycles = 0 },
	}
	for i, mut := range mutations {
		g := GTX480()
		mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestDDOSDefaultsMatchPaper(t *testing.T) {
	d := DefaultDDOS()
	if d.Hash != HashXOR || d.PathBits != 8 || d.ValueBits != 8 ||
		d.HistoryLen != 8 || d.ConfidenceThreshold != 4 || d.TimeShare {
		t.Fatalf("DDOS defaults diverge from the paper: %+v", d)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDDOSValidate(t *testing.T) {
	d := DefaultDDOS()
	d.Hash = "CRC"
	if d.Validate() == nil {
		t.Fatal("unknown hash must fail")
	}
	d = DefaultDDOS()
	d.PathBits = 0
	if d.Validate() == nil {
		t.Fatal("zero path bits must fail")
	}
	d = DefaultDDOS()
	d.TimeShare = true
	d.TimeShareEpoch = 0
	if d.Validate() == nil {
		t.Fatal("time sharing without epoch must fail")
	}
}

// TestTAGEValidate: the longest history, BaseHist·Ratio^(Tables−1), is
// bounded before any multiply can overflow, so a geometry whose history
// rings would exhaust memory is an error, not a dead process.
func TestTAGEValidate(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		tables, baseHist, ratio int
		ok                      bool
	}{
		{"default", 4, 4, 2, true},
		{"at the bound", 8, 8, 2, true},
		{"one table at the bound", 1, maxTAGEHist, 2, true},
		{"one table past the bound", 1, maxTAGEHist + 1, 2, false},
		{"huge ratio", 2, 4, 1 << 40, false},
		{"ratio that wraps int64", 3, 2, 1 << 62, false},
		{"huge base", 1, math.MaxInt, 2, false},
		{"eight tables of ratio 3", 8, 1, 3, false},
		{"max ratio, many tables", 8, 1, math.MaxInt, false},
		{"zero ratio", 2, 4, 0, false},
		{"zero tables", 0, 4, 2, false},
	} {
		c := DefaultTAGE()
		c.Tables, c.BaseHist, c.Ratio = tc.tables, tc.baseHist, tc.ratio
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestBOWSDefaultsMatchPaper(t *testing.T) {
	b := DefaultBOWS()
	if b.WindowCycles != 1000 || b.DelayStep != 250 || b.MinLimit != 1000 ||
		b.Frac1 != 0.5 || b.Frac2 != 0.8 {
		t.Fatalf("BOWS defaults diverge from Table II: %+v", b)
	}
	if !b.Adaptive || b.Mode != BOWSDDOS {
		t.Fatal("default BOWS should be adaptive and DDOS-driven")
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFixedBOWS(t *testing.T) {
	b := FixedBOWS(3000)
	if b.Adaptive || b.DelayLimit != 3000 {
		t.Fatalf("FixedBOWS wrong: %+v", b)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBOWSValidate(t *testing.T) {
	b := DefaultBOWS()
	b.Mode = "banana"
	if b.Validate() == nil {
		t.Fatal("unknown mode must fail")
	}
	b = DefaultBOWS()
	b.MaxLimit = 10
	b.MinLimit = 100
	if b.Validate() == nil {
		t.Fatal("max < min must fail")
	}
	off := BOWS{Mode: BOWSOff}
	if off.Validate() != nil {
		t.Fatal("off mode needs no other fields")
	}
}

// TestNameVocabularyRoundTrips: every name the vocabulary accepts —
// canonical, alias, any case, empty for the default — resolves to the
// configuration its constructor builds, and the inverse lookups recover
// the canonical name, so SpecRequest and Resolve cannot disagree.
func TestNameVocabularyRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		name string
		sms  int
		want GPU
	}{
		{"", 0, GTX480()}, {"Fermi", 2, GTX480().Scaled(2)}, {"gtx480", 0, GTX480()},
		{"pascal", 7, GTX1080Ti().Scaled(7)}, {"GTX1080Ti", 0, GTX1080Ti()},
	} {
		g, err := ParseGPU(tc.name, tc.sms)
		if err != nil || g != tc.want {
			t.Errorf("ParseGPU(%q, %d) = %s, %v; want %s", tc.name, tc.sms, g.Name, err, tc.want.Name)
		}
		g.MaxCycles = 12345 // the budget must not affect the machine's name
		name, sms, ok := GPUName(g)
		if back, _ := ParseGPU(name, sms); !ok || back != tc.want {
			t.Errorf("GPUName(%s) = %q, %d, %v", tc.want.Name, name, sms, ok)
		}
	}
	odd := GTX480()
	odd.WarpsPerSM++
	if _, _, ok := GPUName(odd); ok {
		t.Error("GPUName accepted a hand-edited machine")
	}

	d := int64(500)
	static := FixedBOWS(500)
	static.Mode = BOWSStatic
	for _, tc := range []struct {
		mode  string
		delay *int64
		want  BOWS
	}{
		{"", nil, BOWS{Mode: BOWSOff}}, {"OFF", &d, BOWS{Mode: BOWSOff}},
		{"ddos", nil, DefaultBOWS()}, {"Static", &d, static},
	} {
		b, err := ParseBOWS(tc.mode, tc.delay)
		if err != nil || b != tc.want {
			t.Errorf("ParseBOWS(%q) = %+v, %v; want %+v", tc.mode, b, err, tc.want)
		}
		mode, delay, ok := BOWSName(b)
		if back, _ := ParseBOWS(mode, delay); !ok || back != tc.want {
			t.Errorf("BOWSName(%s) = %q, %v, %v", tc.want.Desc(), mode, delay, ok)
		}
	}
	tuned := DefaultBOWS()
	tuned.WindowCycles++
	if _, _, ok := BOWSName(tuned); ok {
		t.Error("BOWSName accepted a non-default controller")
	}

	for _, hash := range []string{"", "xor", "MODULO"} {
		dd, err := ParseDDOS(hash)
		if err != nil || (hash != "" && !strings.EqualFold(string(dd.Hash), hash)) {
			t.Errorf("ParseDDOS(%q) = %+v, %v", hash, dd, err)
		}
		if name, ok := DDOSName(dd); !ok || name != string(dd.Hash) {
			t.Errorf("DDOSName(%s) = %q, %v", dd.Desc(), name, ok)
		}
	}
	wide := DefaultDDOS()
	wide.PathBits++
	if _, ok := DDOSName(wide); ok {
		t.Error("DDOSName accepted a non-default detector")
	}

	if k, err := ParseScheduler("wasp"); err != nil || k != WASP {
		t.Errorf("ParseScheduler(wasp) = %q, %v", k, err)
	}
	if k, err := ParseDetector(""); err != nil || k != DetectDDOS {
		t.Errorf("ParseDetector default = %q, %v", k, err)
	}
	neg := int64(-1)
	for what, err := range map[string]error{
		"gpu":       second(ParseGPU("volta", 0)),
		"sms":       second(ParseGPU("fermi", -1)),
		"scheduler": second(ParseScheduler("FIFO")),
		"detector":  second(ParseDetector("oracle")),
		"bows mode": second(ParseBOWS("on", nil)),
		"delay":     second(ParseBOWS("ddos", &neg)),
		"ddos hash": second(ParseDDOS("sha")),
	} {
		if err == nil {
			t.Errorf("bad %s accepted", what)
		}
	}
}

func second[T any](_ T, err error) error { return err }

package exp

import (
	"strings"
	"testing"
)

func TestTableRenderer(t *testing.T) {
	tb := &Table{Header: []string{"a", "long-header"}}
	tb.add("x", "1")
	tb.add("longer-cell", "2")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	// All rows align to the same width.
	if len(lines[0]) != len(lines[2]) || len(lines[2]) != len(lines[3]) {
		t.Fatalf("misaligned table:\n%s", out)
	}
}

func TestRegistryCoversPaperEvaluation(t *testing.T) {
	want := []string{"fig1", "fig2", "fig3", "table1", "fig9", "delaysweep",
		"fig14", "fig15", "fig16", "table2", "table3"}
	got := map[string]bool{}
	for _, e := range All() {
		got[e.Name] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.Name)
		}
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("experiment %q missing from registry", w)
		}
	}
}

func TestTable2RendersConfigs(t *testing.T) {
	r, err := Table2(Cfg{})
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"GTX480", "GTX1080Ti", "FRAC1", "XOR"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II rendering missing %q", want)
		}
	}
}

func TestTable3MatchesPaperBudget(t *testing.T) {
	r, err := Table3(Cfg{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 48 warps × 192 bits history, 560-bit SIB-PT, 672-bit counters.
	if r.HistoryBitsPerWarp != 192 {
		t.Errorf("history bits/warp = %d, want 192", r.HistoryBitsPerWarp)
	}
	if r.HistoryBitsTotal != 9216 {
		t.Errorf("history bits total = %d, want 9216", r.HistoryBitsTotal)
	}
	if r.SIBPTBits != 560 {
		t.Errorf("SIB-PT bits = %d, want 560", r.SIBPTBits)
	}
	if r.PendingDelayBits != 672 {
		t.Errorf("pending delay bits = %d, want 672", r.PendingDelayBits)
	}
	if !strings.Contains(r.String(), "9216") {
		t.Error("rendering missing history budget")
	}
}

func TestCfgScaling(t *testing.T) {
	if g := (Cfg{Quick: true}).fermi(); g.NumSMs != 2 {
		t.Errorf("quick fermi SMs = %d", g.NumSMs)
	}
	if g := (Cfg{}).fermi(); g.NumSMs != 4 {
		t.Errorf("default fermi SMs = %d", g.NumSMs)
	}
	if g := (Cfg{SMs: 8}).fermi(); g.NumSMs != 8 {
		t.Errorf("override fermi SMs = %d", g.NumSMs)
	}
	if g := (Cfg{}).pascal(); g.NumSMs != 7 {
		t.Errorf("default pascal SMs = %d", g.NumSMs)
	}
}

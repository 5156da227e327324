package report

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"warpsched/internal/exp"
)

// textGolden lives beside internal/exp's other golden file: the text
// tables are that package's renderer, exercised here because the manifest
// lookup feeding them is this package's.
const textGolden = "../exp/testdata/golden/tables.txt"

// TestGoldenTextTables renders the cmd/experiments text table of every
// figure family straight from the archived full-scale manifest — no
// simulation — and locks it byte for byte. Only delaysweep's closing
// final-limit line is absent: it is the one stdout quantity a record does
// not carry. Regenerate with: go test ./internal/report -run GoldenText -update
func TestGoldenTextTables(t *testing.T) {
	s, err := Load("testdata/full.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Build(s.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, sec := range []struct {
		tag  string
		text fmt.Stringer
	}{
		{"table1", rep.Table1}, {"fig9", rep.Fig9}, {"delaysweep", rep.Delay},
		{"fig14", rep.Fig14}, {"fig15", rep.Fig15}, {"ablation", rep.Ablation},
	} {
		fmt.Fprintf(&got, "==== %s ====\n%s\n", sec.tag, sec.text)
	}
	for _, want := range []string{" ≥11.41 ", "Fig. 12 —", "Fig. 13c —"} {
		if !strings.Contains(got.String(), want) {
			t.Errorf("rendered tables lack %q", want)
		}
	}
	if *update {
		if err := os.WriteFile(textGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(textGolden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("text tables drifted from %s (re-run with -update and review the diff)", textGolden)
	}
}

// TestLiveSectionMatchesManifest runs the cheapest family live and
// checks that the section the harness derived from its outcomes (lookup
// by submission index, counts from sim.Result) and the section this
// package derives from the manifest that same call collected (lookup by
// Set.FindDDOS, counts from record counters) agree number for number. Only
// the kernel order differs — suite order against sorted — and with it the
// last bits of the order-dependent means.
func TestLiveSectionMatchesManifest(t *testing.T) {
	col := exp.NewCollector("test", nil)
	live, err := exp.Fig14(exp.Cfg{Quick: true, Exp: "fig14", Collect: col})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Build(col.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	off := rep.Fig14
	if off == nil {
		t.Fatal("collected manifest derived no fig14 section")
	}
	sorted := append([]string(nil), live.Kernels...)
	sort.Strings(sorted)
	if len(sorted) == 0 || fmt.Sprint(sorted) != fmt.Sprint(off.Kernels) {
		t.Fatalf("kernels: live %v, manifest %v", live.Kernels, off.Kernels)
	}
	for _, k := range live.Kernels {
		if live.XOR[k] != off.XOR[k] || live.MOD[k] != off.MOD[k] {
			t.Errorf("%s time: live %v/%v, manifest %v/%v", k, live.XOR[k], live.MOD[k], off.XOR[k], off.MOD[k])
		}
		if live.FalseXOR[k] != off.FalseXOR[k] || live.FalseMOD[k] != off.FalseMOD[k] {
			t.Errorf("%s falseDet: live %d/%d, manifest %d/%d", k,
				live.FalseXOR[k], live.FalseMOD[k], off.FalseXOR[k], off.FalseMOD[k])
		}
	}
	for name, pair := range map[string][2]float64{
		"GmeanXOR": {live.GmeanXOR, off.GmeanXOR}, "GmeanMOD": {live.GmeanMOD, off.GmeanMOD},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-12*pair[0] {
			t.Errorf("%s: live %v, manifest %v", name, pair[0], pair[1])
		}
	}
	var falseDet int64
	for _, n := range live.FalseMOD {
		falseDet += n
	}
	if falseDet == 0 {
		t.Error("MODULO hashing confirmed no false SIB; the detection columns were compared vacuously")
	}
}

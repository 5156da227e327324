package report

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"warpsched/internal/exp"
)

// textGolden lives beside internal/exp's other golden file: the text
// tables are that package's renderer, exercised here because the manifest
// lookup feeding them is this package's.
const textGolden = "../exp/testdata/golden/tables.txt"

// TestGoldenTextTables renders the cmd/experiments text tables of every
// published section straight from the archived full-scale manifest — no
// simulation — and locks them byte for byte. Regenerate with:
// go test ./internal/report -run GoldenText -update
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
// checks that the section the harness derived from its sweep (lookup by
// submission index, counts from the records its runner built) and the
// section this package derives from the manifest that same call
// collected (lookup by Set.FindDDOS, counts from the manifest's records)
// agree number for number. Only
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

// TestRenderersAgree checks that stdout and REPRODUCTION.md publish the
// same numbers: for each section derived from full.json, the numeric
// table cells of its text rendering equal, as a multiset, those of its
// Markdown section.
func TestRenderersAgree(t *testing.T) {
	s, err := Load("testdata/full.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Build(s.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	md := string(rep.markdown(func(name string) string { return name }))
	// The document's preamble and provenance precede its sections.
	chunks := strings.Split(md, "\n## ")[2:]
	secs := []fmt.Stringer{rep.Fig9, rep.Delay, rep.Fig14, rep.Fig15, rep.Table1, rep.Ablation}
	if len(chunks) != len(secs) {
		t.Fatalf("document has %d sections, want %d", len(chunks), len(secs))
	}
	for i, sec := range secs {
		heading, _, _ := strings.Cut(chunks[i], "\n")
		text, markdown := textCells(sec.String()), mdCells(chunks[i])
		onlyText, onlyMD := multisetDiff(text, markdown)
		if len(text) == 0 || len(onlyText)+len(onlyMD) > 0 {
			t.Errorf("%s: %d numeric cells in text, %d in Markdown; only in text %v; only in Markdown %v",
				heading, len(text), len(markdown), onlyText, onlyMD)
		}
	}
}

// numericCell returns a table cell without Markdown bold, and whether it
// is a number once a lower-bound mark and a % or × unit are set aside.
func numericCell(c string) (string, bool) {
	c = strings.ReplaceAll(strings.TrimSpace(c), "**", "")
	v := strings.TrimSuffix(strings.TrimSuffix(strings.TrimPrefix(c, "≥"), "%"), "×")
	_, err := strconv.ParseFloat(v, 64)
	return c, err == nil
}

// textCells returns the numeric cells of every fixed-width table in out:
// the rows under a dashed rule, up to the first line whose two-character
// column gutters are not blank (a lower-bound mark may hang in the
// second).
func textCells(out string) []string {
	var cells []string
	lines := strings.Split(out, "\n")
	for i, rule := range lines {
		if i == 0 || rule == "" || strings.Trim(rule, "- ") != "" {
			continue
		}
		var starts, ends []int
		for j, r := range rule {
			if r == '-' && (j == 0 || rule[j-1] == ' ') {
				starts = append(starts, j)
			}
			if r == '-' && (j+1 == len(rule) || rule[j+1] == ' ') {
				ends = append(ends, j+1)
			}
		}
	rows:
		for _, line := range lines[i+1:] {
			row := []rune(line)
			if len(row) < starts[len(starts)-1] {
				break
			}
			for k := 1; k < len(starts); k++ {
				if g := row[ends[k-1] : ends[k-1]+2]; g[0] != ' ' || (g[1] != ' ' && g[1] != '≥') {
					break rows
				}
			}
			for k, start := range starts {
				if k > 0 {
					start-- // a hanging lower-bound mark
				}
				if c, ok := numericCell(string(row[start:min(ends[k], len(row))])); ok {
					cells = append(cells, c)
				}
			}
		}
	}
	return cells
}

// mdCells returns the numeric cells of every pipe table in doc.
func mdCells(doc string) []string {
	var cells []string
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			if c, ok := numericCell(c); ok {
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// multisetDiff returns the elements a has more often than b, and those b
// has more often than a, each sorted.
func multisetDiff(a, b []string) (onlyA, onlyB []string) {
	n := map[string]int{}
	for _, c := range a {
		n[c]++
	}
	for _, c := range b {
		n[c]--
	}
	for c, k := range n {
		for ; k > 0; k-- {
			onlyA = append(onlyA, c)
		}
		for ; k < 0; k++ {
			onlyB = append(onlyB, c)
		}
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	return onlyA, onlyB
}

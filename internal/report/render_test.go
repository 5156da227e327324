package report

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/exp"
	"warpsched/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden rendering files")

// goldenFixture builds a compact manifest covering every report section
// with formulaic (but realistic-looking) counters, so the golden files
// stay small and reviewable while still exercising each renderer.
func goldenFixture(t *testing.T) *metrics.Manifest {
	t.Helper()
	m := table1Fixture(t)
	add := func(r metrics.RunRecord) {
		t.Helper()
		if err := m.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	mkRec := func(e, kernel, sched, bows, ddos string, i int) metrics.RunRecord {
		cycles := int64(10000 + 777*i)
		return metrics.RunRecord{
			Exp: e, Kernel: kernel, GPU: "GTX480/4SM", Sched: sched,
			BOWS: bows, DDOS: ddos, Variant: fmt.Sprintf("g-%s-%d", e, i),
			Cycles: cycles,
			Counters: map[string]int64{
				"exec.warp_instrs":        cycles / 4,
				"exec.thread_instrs":      cycles * 4,
				"exec.sync_thread_instrs": cycles,
				"exec.active_lane_sum":    cycles / 4 * 8, // SIMD efficiency 0.25
				"mem.transactions":        cycles / 2,
				"mem.l1_accesses":         cycles / 2,
				"mem.l1_hits":             cycles / 3,
				"sched.issue_cycles":      cycles / 4,
				"sched.idle_cycles":       cycles * 8 * 3 / 4,
				"sched.sample_cycles":     cycles,
				"sched.resident_sum":      cycles * 16,
				"sched.backed_off_sum":    cycles * int64(i),
			},
		}
	}
	xor := config.DefaultDDOS().Desc()
	adaptive := config.DefaultBOWS().Desc()
	i := 0
	for _, kernel := range []string{"ATM", "HT"} {
		for _, sched := range []string{"LRR", "GTO", "CAWA"} {
			for _, bows := range []string{"off", adaptive} {
				add(mkRec("fig9", kernel, sched, bows, xor, i))
				i++
			}
		}
	}
	bowsCols := []string{"off"}
	for _, d := range exp.DelayLimits {
		bowsCols = append(bowsCols, config.FixedBOWS(d).Desc())
	}
	bowsCols = append(bowsCols, adaptive)
	for _, bows := range bowsCols {
		add(mkRec("delaysweep", "HT", "GTO", bows, xor, i))
		i++
	}
	mod := config.DefaultDDOS()
	mod.Hash = config.HashModulo
	add(mkRec("fig14", "MS", "GTO", "off", xor, i))
	add(mkRec("fig14", "MS", "GTO", config.FixedBOWS(5000).Desc(), xor, i+1))
	r := mkRec("fig14", "MS", "GTO", config.FixedBOWS(5000).Desc(), mod.Desc(), i+2)
	r.Counters["ddos.false_sibs_detected"] = 2
	add(r)
	i += 3
	for _, col := range exp.AblationLayout() {
		add(mkRec("ablation", "HT", "GTO", col.BOWS.Desc(), xor, i))
		i++
	}
	// One watchdog lower bound, to pin the "≥" rendering.
	lb := mkRec("fig15", "DS", "GTO", "off", xor, i)
	lb.Err = "watchdog: no forward progress"
	add(lb)
	for _, sched := range []string{"LRR", "GTO", "CAWA"} {
		for _, bows := range []string{"off", adaptive} {
			if sched == "GTO" && bows == "off" {
				continue
			}
			add(mkRec("fig15", "DS", sched, bows, xor, i+1))
			i++
		}
	}
	m.Sort()
	return m
}

// TestGoldenRendering locks the rendered document and figures byte for
// byte. Regenerate with: go test ./internal/report -run Golden -update
func TestGoldenRendering(t *testing.T) {
	rep, err := Build(goldenFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	files := rep.Files("REPRODUCTION.md", "figures")
	if len(files) < 5 {
		t.Fatalf("rendered only %d files: %v", len(files), files)
	}
	dir := filepath.Join("testdata", "golden")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for path, got := range files {
		name := strings.ReplaceAll(path, "/", "_")
		gp := filepath.Join(dir, name)
		if *update {
			if err := os.WriteFile(gp, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(gp)
		if err != nil {
			t.Fatalf("missing golden file for %s (run with -update): %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from golden rendering (re-run with -update and review the diff)", path)
		}
	}
}

// TestWriteCheckRoundTrip writes a report to disk and verifies Check
// passes on the result and fails after tampering.
func TestWriteCheckRoundTrip(t *testing.T) {
	rep, err := Build(goldenFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	md := filepath.Join(dir, "REPRODUCTION.md")
	svg := filepath.Join(dir, "figures")
	if _, err := rep.Write(md, svg); err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(md, svg); err != nil {
		t.Fatalf("Check after Write: %v", err)
	}
	if err := os.WriteFile(md, []byte("edited by hand\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = rep.Check(md, svg)
	var de *DriftError
	if !asDrift(err, &de) || len(de.Paths) != 1 {
		t.Fatalf("Check after tamper: want DriftError with 1 path, got %v", err)
	}
}

func asDrift(err error, target **DriftError) bool {
	de, ok := err.(*DriftError)
	if ok {
		*target = de
	}
	return ok
}

// TestFiguresEmbedded holds figures() to the document: every ![…](…)
// target the Markdown embeds is a figure figures() renders, and every
// figure it renders is embedded. figures() names its files apart from
// the sections' exp.Table.Figure names, so a rename on one side only
// would leave a broken image or an orphan SVG.
func TestFiguresEmbedded(t *testing.T) {
	full, err := Load("testdata/full.json")
	if err != nil {
		t.Fatal(err)
	}
	image := regexp.MustCompile(`!\[[^\]]*\]\(([^)]*)\)`)
	for name, m := range map[string]*metrics.Manifest{"golden fixture": goldenFixture(t), "full.json": full.Manifest()} {
		rep, err := Build(m)
		if err != nil {
			t.Fatal(err)
		}
		figs := rep.figures()
		embedded := map[string]bool{}
		for _, sub := range image.FindAllStringSubmatch(string(rep.markdown(func(f string) string { return f })), -1) {
			embedded[sub[1]] = true
			if _, ok := figs[sub[1]]; !ok {
				t.Errorf("%s: the document embeds %s, which figures() does not render", name, sub[1])
			}
		}
		for f := range figs {
			if !embedded[f] {
				t.Errorf("%s: figures() renders %s, which the document does not embed", name, f)
			}
		}
		if len(figs) == 0 {
			t.Errorf("%s: no figures rendered", name)
		}
	}
}

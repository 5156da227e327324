//go:build full

package report

import (
	"strings"
	"testing"

	"warpsched/internal/exp"
	"warpsched/internal/metrics"
)

// TestRegrowFullManifest is the full-scale regrow gate: it runs every
// experiment at full scale, as `experiments -exp all -stats-json` does,
// requires the manifest to equal testdata/full.json run for run (wall
// times aside), and renders the report from the regrown manifest through
// the drift check against the checked-in REPRODUCTION.md and figures. It
// proves a simulator change cycle-exact on all 857 runs, not only on the
// golden subset; about 40 s on two cores, so it sits behind a build tag:
//
//	go test -tags full ./internal/report -run Regrow -timeout 20m
func TestRegrowFullManifest(t *testing.T) {
	journal, err := exp.OpenJournal("")
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	col := exp.NewCollector("experiments", map[string]any{"quick": false, "sms": 0})
	cfg := exp.Cfg{Journal: journal, Collect: col}
	for _, e := range exp.All() {
		cfg.Exp = e.Name
		if _, err := e.Run(cfg); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
	got := col.Manifest()
	want, err := metrics.ReadFile("testdata/full.json")
	if err != nil {
		t.Fatal(err)
	}
	if diff := metrics.Diff(got, want, metrics.DiffOptions{RequireSameRuns: true}); len(diff) > 0 {
		t.Fatalf("%d difference(s) against testdata/full.json — a change that moves simulated numbers bumps sim.Version and regrows it:\n%s",
			len(diff), strings.Join(diff, "\n"))
	}
	rep, err := Build(got)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check("../../REPRODUCTION.md", "../../docs/figures"); err != nil {
		t.Fatal(err)
	}
}

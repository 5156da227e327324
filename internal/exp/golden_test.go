package exp

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"warpsched/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden stats files under testdata/golden")

const goldenPath = "testdata/golden/quick.json"

// quickGolden is the quick golden sweep's manifest, simulated once per
// test binary: TestGoldenQuickStats and TestManifestByteIdenticalAcrossJobsAndClocks
// both need the default-Cfg sweep.
var quickGolden = sync.OnceValues(func() (*metrics.Manifest, error) {
	return GoldenManifest(Cfg{Quick: true})
})

// quickGoldenManifest returns a copy of the quick golden manifest that the
// caller may sort and whose wall times it may zero (manifestBytes does
// both) without touching the other callers' copies. The records' counter
// maps are shared and must not be written.
func quickGoldenManifest(t *testing.T) *metrics.Manifest {
	t.Helper()
	m, err := quickGolden()
	if err != nil {
		t.Fatal(err)
	}
	cp := *m
	cp.Runs = append([]metrics.RunRecord(nil), m.Runs...)
	return &cp
}

// TestGoldenQuickStats is the golden-stats regression gate: it re-runs
// the quick golden sweep and diffs the resulting manifest against the
// committed snapshot — cycles and event counters exactly, derived floats
// within tolerance, wall times never. Any change to simulation behavior,
// however small, fails here and forces a conscious regeneration:
//
//	go test ./internal/exp -run Golden -update
func TestGoldenQuickStats(t *testing.T) {
	got := quickGoldenManifest(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := got.WriteFile(goldenPath); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d runs)", goldenPath, len(got.Runs))
		return
	}
	want, err := metrics.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden snapshot (regenerate with -update): %v", err)
	}
	diffs := metrics.Diff(got, want, metrics.DiffOptions{FloatTol: 1e-9, RequireSameRuns: true})
	for _, d := range diffs {
		t.Error(d)
	}
	if len(diffs) > 0 {
		t.Errorf("%d difference(s) against %s — if the simulation change is intended, regenerate with `go test ./internal/exp -run Golden -update`",
			len(diffs), goldenPath)
	}
}

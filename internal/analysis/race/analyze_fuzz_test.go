package race_test

import (
	"os"
	"strings"
	"testing"
	"time"

	"warpsched/internal/analysis"
	"warpsched/internal/analysis/race"
	"warpsched/internal/isa"
	"warpsched/internal/kernels"
)

// FuzzAnalyze runs both analyzers on programs nobody chose: any text that
// isa.Parse accepts and Validate passes goes through analysis.Analyze and
// race.Analyze at a small launch (2 CTAs × 64 threads). Neither may panic,
// and both together must finish an input in under two seconds — the race
// fixpoint's termination argument (DESIGN.md §6.14) meeting arbitrary
// control flow. Seeded with FuzzParse's corpus: every registered kernel,
// full and quick, and the examples/customkernel program.
func FuzzAnalyze(f *testing.F) {
	var suites []*kernels.Kernel
	suites = append(suites, kernels.SyncSuite()...)
	suites = append(suites, kernels.SyncFreeSuite()...)
	suites = append(suites, kernels.QuickSyncSuite()...)
	suites = append(suites, kernels.QuickSyncFreeSuite()...)
	for _, k := range suites {
		f.Add(k.Launch.Prog.Assembly())
	}
	data, err := os.ReadFile("../../../examples/customkernel/main.go")
	if err != nil {
		f.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), "const stackPushSrc = `")
	stackPush, _, ok2 := strings.Cut(rest, "`")
	if !ok || !ok2 {
		f.Fatal("examples/customkernel/main.go no longer declares stackPushSrc as a raw string")
	}
	f.Add(stackPush)

	f.Fuzz(func(t *testing.T, src string) {
		p, err := isa.Parse("fuzz", src)
		if err != nil || p.Validate() != nil {
			return
		}
		start := time.Now()
		analysis.Analyze(p)
		race.Analyze(p, race.Options{GridCTAs: 2, CTAThreads: 64})
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("analyzing took %v, want under 2s:\n%s", d, src)
		}
	})
}

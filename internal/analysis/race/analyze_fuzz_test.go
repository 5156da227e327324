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

// The inline programs of bench/service.go's job mix, copied.
const (
	aluLoopSrc = `
  ld.param %r2, 0
  mov %r1, 0
loop:
  add %r1, %r1, 1
  setp.lt %p1, %r1, %r2
  @%p1 bra loop
  exit
`
	vecLoopSrc = `
  ld.param %r10, 0
  ld.param %r2, 1
  mov %r1, %gtid
  ld.global %r3, [%r10+%r1]
  mov %r4, 0
loop:
  add %r3, %r3, %r1
  add %r4, %r4, 1
  setp.lt %p1, %r4, %r2
  @%p1 bra loop
  st.global [%r10+%r1], %r3
  exit
`
)

// FuzzAnalyze runs both analyzers on programs nobody chose: any text that
// isa.Parse accepts and Validate passes goes through analysis.Analyze and
// race.Analyze at a small launch (2 CTAs × 64 threads). Neither may panic,
// and both together must finish an input in under two seconds — the race
// fixpoint's termination argument (DESIGN.md §6.14) meeting arbitrary
// control flow. Seeded with FuzzParse's corpus: every registered kernel,
// full and quick, and the examples/customkernel program; plus a ladder,
// whose same-form guarded stores the prover answers from their
// guard-free query, and the two inline programs the benchmark's service
// workload submits.
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
	f.Add(ladderSrc(8))
	f.Add(aluLoopSrc)
	f.Add(vecLoopSrc)

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

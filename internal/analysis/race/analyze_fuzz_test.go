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

// lockSeeds are the lockset idioms the registered kernels do not all
// cover: a spin lock, a try-lock that backs out of its first lock when
// the second is taken, two nested spin locks, and a guarded CAS retried
// in a loop, whose acquire can never be classified.
var lockSeeds = []string{`
  ld.param %r2, 0
  ld.param %r3, 1
spin:
  atom.cas %r1, [%r2+0], 0, 1  !acquire,sync
  setp.ne %p0, %r1, 0
  @%p0 bra spin  !sib,sync
  ld.global %r4, [%r3+0]
  add %r4, %r4, 1
  st.global [%r3+0], %r4
  atom.exch %r1, [%r2+0], 0  !release,sync
  exit
`, `
  ld.param %r2, 0
  mov %r1, %gtid
  and %r3, %r1, 7
  add %r4, %r3, 1
  and %r4, %r4, 7
retry:
  atom.cas %r5, [%r2+%r3], 0, 1  !acquire,sync
  setp.ne %p0, %r5, 0
  @%p0 bra retry  !sib,sync
  atom.cas %r6, [%r2+%r4], 0, 1  !acquire,sync
  setp.eq %p1, %r6, 0
  @%p1 bra got reconv=got
  atom.exch %r5, [%r2+%r3], 0  !release,sync
  bra retry
got:
  st.global [%r2+16], %r1
  atom.exch %r6, [%r2+%r4], 0  !release,sync
  atom.exch %r5, [%r2+%r3], 0  !release,sync
  exit
`, `
  ld.param %r2, 0
  ld.param %r3, 1
outer:
  atom.cas %r1, [%r2+0], 0, 1  !acquire,sync
  setp.ne %p0, %r1, 0
  @%p0 bra outer  !sib,sync
inner:
  atom.exch %r4, [%r2+1], 1  !acquire,sync
  setp.ne %p1, %r4, 0
  @%p1 bra inner  !sib,sync
  st.global [%r3+0], %r4
  atom.exch %r4, [%r2+1], 0  !release,sync
  atom.exch %r1, [%r2+0], 0  !release,sync
  exit
`, `
  ld.param %r2, 0
  ld.param %r3, 1
  mov %r1, %tid
  setp.lt %p2, %r1, 32
  mov %r5, 0
loop:
  @%p2 atom.cas %r4, [%r2+0], 0, 1  !acquire,sync
  setp.eq %p0, %r4, 0
  @!%p0 bra skip reconv=skip
  st.global [%r3+%r1], %r5
  atom.exch %r4, [%r2+0], 0  !release,sync
skip:
  add %r5, %r5, 1
  setp.lt %p1, %r5, 3
  @%p1 bra loop
  exit
`}

// FuzzAnalyze runs both analyzers on programs nobody chose: any text that
// isa.Parse accepts and Validate passes goes through analysis.Analyze and
// race.Analyze at a small launch (2 CTAs × 64 threads). Neither may panic,
// and both together must finish an input in under two seconds — the race
// fixpoint's termination argument (DESIGN.md §6.14) meeting arbitrary
// control flow. Seeded with FuzzParse's corpus: every registered kernel,
// full and quick, and the examples/customkernel program; plus a ladder,
// whose same-form guarded stores the prover answers from their
// guard-free query, the two inline programs the benchmark's service
// workload submits, and lockSeeds.
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
	for _, src := range lockSeeds {
		f.Add(src)
	}

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

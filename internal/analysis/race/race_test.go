package race_test

import (
	"strings"
	"testing"

	"warpsched/internal/analysis"
	"warpsched/internal/analysis/race"
	"warpsched/internal/isa"
	"warpsched/internal/kernels"
)

func mustParse(t *testing.T, name, src string) *isa.Program {
	t.Helper()
	p, err := isa.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func hasFinding(fs []analysis.Finding, cat analysis.Category, pc, other int32) bool {
	for _, f := range fs {
		if f.Category == cat && f.PC == pc && f.OtherPC == other {
			return true
		}
	}
	return false
}

// TestSeededRaceBugs feeds the analyzer known-bad programs and requires
// the expected finding category at the expected location. Unless a case
// says otherwise, programs run at 1 CTA x 64 threads so every report is
// a same-CTA, same-barrier-interval scenario.
func TestSeededRaceBugs(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		ctas  int32
		cat   analysis.Category
		pc    int32
		other int32
	}{
		{
			// Every thread stores the same word: the self-pair race.
			name: "shared-word-ww",
			src: `
  ld.param %r2, 0
  mov %r1, 1
  st.global [%r2+0], %r1    // 2
  exit
`,
			cat: analysis.CatRace, pc: 2,
		},
		{
			// Lost update: plain ld/add/st on a shared counter.
			name: "shared-counter-rmw",
			src: `
  ld.param %r2, 0
  ld.global %r1, [%r2+0]    // 1
  add %r1, %r1, 1
  st.global [%r2+0], %r1    // 3
  exit
`,
			cat: analysis.CatRace, pc: 1, other: 3,
		},
		{
			// Neighbour read against neighbour's write with no barrier
			// between them: the classic missing-bar.sync stencil.
			name: "neighbour-wr-no-barrier",
			src: `
  ld.param %r2, 0
  mov %r1, %tid
  add %r3, %r1, 1
  st.global [%r2+%r1], %r1  // 3: out[tid]
  ld.global %r4, [%r2+%r3]  // 4: out[tid+1], written by the neighbour
  st.global [%r2+%r1], %r4  // 5
  exit
`,
			cat: analysis.CatRace, pc: 3, other: 4,
		},
		{
			// Same stencil but the racing pair straddles a barrier the
			// *wrong* way: both accesses sit in the second interval.
			name: "race-within-second-interval",
			src: `
  ld.param %r2, 0
  mov %r1, %tid
  add %r3, %r1, 1
  bar.sync                  // 3
  st.global [%r2+%r1], %r1  // 4
  ld.global %r4, [%r2+%r3]  // 5
  st.global [%r2+%r1], %r4  // 6
  exit
`,
			cat: analysis.CatRace, pc: 4, other: 5,
		},
		{
			// tid-indexed stores are disjoint within a CTA but collide
			// across CTAs when the grid has more than one.
			name: "cross-cta-tid-store",
			src: `
  ld.param %r2, 0
  mov %r1, %tid
  st.global [%r2+%r1], %r1  // 2
  exit
`,
			ctas: 2, cat: analysis.CatRace, pc: 2,
		},
		{
			// Acquiring a non-reentrant lock twice on one path.
			name: "double-acquire",
			src: `
  ld.param %r2, 0
s1:
  atom.cas %r1, [%r2+0], 0, 1  !acquire,sync  // 1
  setp.ne %p0, %r1, 0
  @%p0 bra s1  !sib,sync
s2:
  atom.cas %r1, [%r2+0], 0, 1  !acquire,sync  // 4
  setp.ne %p0, %r1, 0
  @%p0 bra s2  !sib,sync
  atom.exch %r1, [%r2+0], 0  !release,sync
  atom.exch %r1, [%r2+0], 0  !release,sync
  exit
`,
			cat: analysis.CatDoubleAcquire, pc: 1, other: 4,
		},
		{
			name: "unlock-without-lock",
			src: `
  ld.param %r2, 0
  atom.exch %r1, [%r2+0], 0  !release,sync  // 1
  exit
`,
			cat: analysis.CatUnlockWithoutLock, pc: 1,
		},
		{
			// Lock held at thread exit.
			name: "lock-leak",
			src: `
  ld.param %r2, 0
spin:
  atom.cas %r1, [%r2+0], 0, 1  !acquire,sync  // 1
  setp.ne %p0, %r1, 0
  @%p0 bra spin  !sib,sync
  exit
`,
			cat: analysis.CatLockLeak, pc: 1,
		},
		{
			// Blocking acquires in both A-then-B and B-then-A order: the
			// acquisition graph has a cycle, so two threads can deadlock.
			name: "lock-order-cycle",
			src: `
  ld.param %r2, 0
  ld.param %r3, 1
a1:
  atom.cas %r1, [%r2+0], 0, 1  !acquire,sync  // 2
  setp.ne %p0, %r1, 0
  @%p0 bra a1  !sib,sync
b1:
  atom.cas %r1, [%r3+0], 0, 1  !acquire,sync  // 5
  setp.ne %p0, %r1, 0
  @%p0 bra b1  !sib,sync
  atom.exch %r1, [%r3+0], 0  !release,sync
  atom.exch %r1, [%r2+0], 0  !release,sync
b2:
  atom.cas %r1, [%r3+0], 0, 1  !acquire,sync  // 10
  setp.ne %p0, %r1, 0
  @%p0 bra b2  !sib,sync
a2:
  atom.cas %r1, [%r2+0], 0, 1  !acquire,sync  // 13
  setp.ne %p0, %r1, 0
  @%p0 bra a2  !sib,sync
  atom.exch %r1, [%r2+0], 0  !release,sync
  atom.exch %r1, [%r3+0], 0  !release,sync
  exit
`,
			cat: analysis.CatLockOrder, pc: 2, other: 5,
		},
		{
			// A thread-dependent branch whose two sides proceed to
			// different bar.syncs: one CTA pairs mismatched phases.
			name: "divergent-barrier-phases",
			src: `
  mov %r1, %tid
  setp.lt %p0, %r1, 16
  @%p0 bra fast reconv=end  // 2
  bar.sync                  // 3
  bar.sync                  // 4
  bra end
fast:
  bar.sync                  // 6
end:
  exit
`,
			cat: analysis.CatBarrierDeadlock, pc: 2,
		},
		{
			// The guard is derived from loaded *data* at a thread-varying
			// address, which is just as thread-dependent as tid itself.
			name: "divergent-barrier-data-guard",
			src: `
  ld.param %r2, 0
  mov %r1, %tid
  ld.global %r3, [%r2+%r1]
  setp.lt %p0, %r3, 16
  @%p0 bra fast reconv=end  // 4
  bar.sync                  // 5
  bar.sync                  // 6
  bra end
fast:
  bar.sync                  // 8
end:
  exit
`,
			cat: analysis.CatBarrierDeadlock, pc: 4,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctas := c.ctas
			if ctas == 0 {
				ctas = 1
			}
			res := race.Analyze(mustParse(t, c.name, c.src),
				race.Options{GridCTAs: ctas, CTAThreads: 64})
			if !hasFinding(res.Findings, c.cat, c.pc, c.other) {
				t.Errorf("want [%s] at pc %d other %d, got: %v",
					c.cat, c.pc, c.other, res.Findings)
			}
		})
	}
}

// TestInvalidProgram: structurally broken programs must come back as a
// single CatInvalid finding instead of panicking inside the passes.
func TestInvalidProgram(t *testing.T) {
	p := &isa.Program{Name: "bad", Code: []isa.Instr{
		{Op: isa.OpSelp, Dst: 0, PSrc: isa.NumPreds, A: isa.I(1), B: isa.I(2), Guard: isa.NoGuard},
		{Op: isa.OpExit, Guard: isa.NoGuard},
	}}
	fs := race.Analyze(p, race.Options{GridCTAs: 1, CTAThreads: 64}).Findings
	if len(fs) != 1 || fs[0].Category != analysis.CatInvalid || fs[0].PC != -1 {
		t.Fatalf("want one CatInvalid finding at pc -1, got %v", fs)
	}
}

// TestCleanIdioms feeds the analyzer correct synchronization idioms and
// requires a clean report: these pin the exemptions and the prover's
// precision, and each one started life as a false positive.
func TestCleanIdioms(t *testing.T) {
	cases := []struct {
		name string
		src  string
		ctas int32
	}{
		{
			// Mutex-protected shared counter: the Eraser common-lock rule.
			name: "mutex-counter",
			ctas: 2,
			src: `
  ld.param %r2, 0
  ld.param %r3, 1
spin:
  atom.cas %r1, [%r2+0], 0, 1  !acquire,sync
  setp.ne %p0, %r1, 0
  @%p0 bra spin  !sib,sync
  ld.global %r4, [%r3+0]
  add %r4, %r4, 1
  st.global [%r3+0], %r4
  membar
  atom.exch %r1, [%r2+0], 0  !release,sync
  exit
`,
		},
		{
			// Lock-free CAS retry: no plain store, so nothing can race.
			name: "cas-retry-accumulate",
			ctas: 2,
			src: `
  ld.param %r2, 0
retry:
  ld.volatile %r1, [%r2+0]
  add %r3, %r1, 1
  atom.cas %r4, [%r2+0], %r1, %r3
  setp.ne %p0, %r4, %r1
  @%p0 bra retry  !sib,sync
  exit
`,
		},
		{
			// Producer/consumer mailbox behind a flag: the flag store is
			// single-writer (tid 0, proven by the guard constraint), the
			// spin read and the mailbox read are volatile by intent.
			name: "producer-consumer-flag",
			ctas: 1,
			src: `
  ld.param %r2, 0            // flag
  ld.param %r3, 1            // mailbox
  ld.param %r4, 2            // out
  mov %r1, %tid
  setp.eq %p0, %r1, 0
  @!%p0 bra consumer reconv=end
  mov %r5, 42
  st.global [%r3+0], %r5     // producer fills the mailbox
  membar
  mov %r5, 1
  st.global [%r2+0], %r5     // then raises the flag (tid 0 only)
  bra end
consumer:
spin:
  ld.volatile %r5, [%r2+0]
  setp.eq %p1, %r5, 0
  @%p1 bra spin  !sib,sync
  ld.volatile %r6, [%r3+0]
  st.global [%r4+%r1], %r6
end:
  exit
`,
		},
		{
			// Barrier-separated phases: write out[tid], bar.sync, read the
			// neighbour's slot. The store and the load share no interval.
			name: "barrier-separated-stencil",
			ctas: 1,
			src: `
  ld.param %r2, 0
  ld.param %r5, 1
  mov %r1, %tid
  add %r3, %r1, 1
  st.global [%r2+%r1], %r1
  membar
  bar.sync
  ld.global %r4, [%r2+%r3]
  st.global [%r5+%r1], %r4
  exit
`,
		},
		{
			// Distinct parameter bases never collide (the admission-time
			// aliasing contract): in-array reads vs out-array writes.
			name: "distinct-param-arrays",
			ctas: 2,
			src: `
  ld.param %r2, 0
  ld.param %r5, 1
  mov %r1, %gtid
  add %r3, %r1, 1
  ld.global %r4, [%r2+%r3]
  st.global [%r5+%r1], %r4
  exit
`,
		},
		{
			// Grid-stride loop: i = gtid + k*stride partitions the index
			// space across the whole grid.
			name: "grid-stride-loop",
			ctas: 2,
			src: `
  ld.param %r2, 0
  mov %r1, %gtid
loop:
  st.global [%r2+%r1], %r1
  add %r1, %r1, 128
  setp.lt %p0, %r1, 1024
  @%p0 bra loop
  exit
`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := race.Analyze(mustParse(t, c.name, c.src),
				race.Options{GridCTAs: c.ctas, CTAThreads: 64})
			if len(res.Findings) != 0 {
				t.Errorf("want clean, got: %v", res.Findings)
			}
		})
	}
}

// TestNoLintClassSuppression: a `!nolint race` on either endpoint
// silences the pair, a non-matching class list does not, and suppressed
// findings stay visible in Report.Suppressed.
func TestNoLintClassSuppression(t *testing.T) {
	const tmpl = `
  ld.param %r2, 0
  ld.global %r1, [%r2+0]    // 1
  add %r1, %r1, 1
  st.global [%r2+0], %r1    NOLINT // 3
  exit
`
	run := func(ann string) *analysis.Report {
		src := strings.Replace(tmpl, "NOLINT", ann, 1)
		return race.Analyze(mustParse(t, "nolint", src),
			race.Options{GridCTAs: 1, CTAThreads: 64})
	}

	if res := run("!nolint race"); hasFinding(res.Findings, analysis.CatRace, 1, 3) {
		t.Errorf("class-matched nolint on the store did not silence the pair: %v", res.Findings)
	} else if !hasFinding(res.Suppressed, analysis.CatRace, 1, 3) {
		t.Errorf("suppressed finding not recorded: %v", res.Suppressed)
	}
	if res := run("!nolint lockorder"); !hasFinding(res.Findings, analysis.CatRace, 1, 3) {
		t.Errorf("non-matching nolint class must not suppress: %v", res.Findings)
	}
	if res := run("!nolint"); hasFinding(res.Findings, analysis.CatRace, 1, 3) {
		t.Errorf("bare nolint must suppress everything at the site: %v", res.Findings)
	}
}

// TestRegisteredKernelsClean: every registered kernel, analyzed at its
// recorded launch geometry, must produce zero unsuppressed findings.
// Suppressions must carry a class list (no blanket nolint for races).
func TestRegisteredKernelsClean(t *testing.T) {
	suites := [][]*kernels.Kernel{
		kernels.SyncSuite(), kernels.SyncFreeSuite(),
		kernels.QuickSyncSuite(), kernels.QuickSyncFreeSuite(),
	}
	n := 0
	for _, s := range suites {
		for _, k := range s {
			n++
			res := race.Analyze(k.Launch.Prog, race.Options{
				GridCTAs:   int32(k.Launch.GridCTAs),
				CTAThreads: int32(k.Launch.CTAThreads),
			})
			for _, f := range res.Findings {
				t.Errorf("%s: unsuppressed finding: pc %d [%s] %s",
					k.Name, f.PC, f.Category, f.Message)
			}
		}
	}
	if n < 40 {
		t.Fatalf("only %d kernels registered; suites shrank?", n)
	}
}

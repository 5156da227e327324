package race

import (
	"fmt"
	"slices"
	"testing"

	"warpsched/internal/analysis"
	"warpsched/internal/isa"
	"warpsched/internal/kernels"
)

// lockSetup parses src, runs the interpreter and the lockset DFS.
func lockSetup(t *testing.T, src string) (*lockResult, *interp) {
	t.Helper()
	p := mustParse(t, "t", src)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	g := analysis.BuildCFG(p)
	it := newInterp(p, g, geometry{ctas: 2, threads: 64, warps: 2})
	it.run()
	return analyzeLocks(it, g), it
}

// spin-acquire of lock word [param0+0]; PCs 1..3, body starts at 4.
const acquirePrefix = `
  ld.param %r2, 0
spin:
  atom.cas %r1, [%r2+0], 0, 1  !acquire,sync
  setp.ne %p0, %r1, 0
  @%p0 bra spin  !sib,sync
`

// TestLocksetSuccessClassification: the spin exit edge proves the CAS
// returned 0, so the lock must be held (resolved, not pending) on every
// path reaching the critical section.
func TestLocksetSuccessClassification(t *testing.T) {
	res, _ := lockSetup(t, acquirePrefix+`
  ld.param %r3, 1
  st.global [%r3+0], %r1       // 5: critical section
  atom.exch %r1, [%r2+0], 0    !release,sync
  exit
`)
	held := res.mustHeld[5]
	if len(held) != 1 || held[0].pc != 1 {
		t.Fatalf("mustHeld[5] = %+v, want the resolved acquire from pc 1", held)
	}
	if len(res.findings) != 0 {
		t.Fatalf("unexpected findings: %v", res.findings)
	}
}

// TestLocksetDiamondMerge: a branch inside the critical section must not
// lose the lock — both arms and the join keep the same resolved entry.
func TestLocksetDiamondMerge(t *testing.T) {
	res, _ := lockSetup(t, acquirePrefix+`
  ld.param %r3, 1
  mov %r4, %tid
  setp.lt %p1, %r4, 16
  @!%p1 bra other reconv=join  // 7
  add %r4, %r4, 1              // 8: then-arm
  bra join
other:
  add %r4, %r4, 2              // 10: else-arm
join:
  st.global [%r3+0], %r4       // 11: still inside the critical section
  atom.exch %r1, [%r2+0], 0    !release,sync
  exit
`)
	for _, pc := range []int32{8, 10, 11} {
		held := res.mustHeld[pc]
		if len(held) != 1 || held[0].pc != 1 {
			t.Fatalf("mustHeld[%d] = %+v, want the acquire from pc 1", pc, held)
		}
	}
	if len(res.findings) != 0 {
		t.Fatalf("unexpected findings: %v", res.findings)
	}
}

// TestLocksetConditionalAcquireNotMerged: when only one path through a
// diamond acquires (and releases before the join), the join's must-held
// set is the intersection — empty — while the critical section keeps it.
func TestLocksetConditionalAcquireNotMerged(t *testing.T) {
	res, _ := lockSetup(t, `
  ld.param %r2, 0
  ld.param %r3, 1
  mov %r4, %tid
  setp.lt %p1, %r4, 16
  @!%p1 bra join reconv=join   // 4
spin:
  atom.cas %r1, [%r2+0], 0, 1  !acquire,sync
  setp.ne %p0, %r1, 0
  @%p0 bra spin  !sib,sync
  st.global [%r3+0], %r4       // 8: critical section, lock held
  atom.exch %r1, [%r2+0], 0    !release,sync
join:
  st.global [%r3+4], %r4       // 10: lock held on no path here
  exit
`)
	if held := res.mustHeld[8]; len(held) != 1 || held[0].pc != 5 {
		t.Fatalf("mustHeld[8] = %+v, want the acquire from pc 5", held)
	}
	if held := res.mustHeld[10]; len(held) != 0 {
		t.Fatalf("mustHeld[10] = %+v, want empty after the join", held)
	}
	if len(res.findings) != 0 {
		t.Fatalf("unexpected findings: %v", res.findings)
	}
}

// TestLocksetUnclassifiableAcquireStaysPending: with no branch proving
// the CAS succeeded, the entry must stay out of mustHeld.
func TestLocksetUnclassifiableAcquireStaysPending(t *testing.T) {
	res, _ := lockSetup(t, `
  ld.param %r2, 0
  ld.param %r3, 1
  atom.cas %r1, [%r2+0], 0, 1  !acquire,sync  // 2: success never tested
  st.global [%r3+0], %r1       // 3
  atom.exch %r1, [%r2+0], 0    !release,sync
  exit
`)
	if held := res.mustHeld[3]; len(held) != 0 {
		t.Fatalf("mustHeld[3] = %+v, want empty (acquire success unproven)", held)
	}
}

// TestLocksetDstOverwriteDeclassifies: clobbering the CAS result register
// before the success test makes the spin-exit edge meaningless.
func TestLocksetDstOverwriteDeclassifies(t *testing.T) {
	res, _ := lockSetup(t, `
  ld.param %r2, 0
  ld.param %r3, 1
spin:
  atom.cas %r1, [%r2+0], 0, 1  !acquire,sync  // 2
  mov %r1, 0                   // 3: clobbers the result
  setp.ne %p0, %r1, 0
  @%p0 bra spin  !sib,sync
  st.global [%r3+0], %r1       // 6
  atom.exch %r1, [%r2+0], 0    !release,sync
  exit
`)
	if held := res.mustHeld[6]; len(held) != 0 {
		t.Fatalf("mustHeld[6] = %+v, want empty (result clobbered)", held)
	}
}

// TestLockPassNeedsLockAnnotations: a program with no lock annotation
// gets the empty result without exploring (exploration records a
// must-held set at every PC it reaches, pc 0 first), and every program
// with one, registered or release-only, is still explored. A release
// alone is reason enough: unlocking on a path that holds nothing is the
// unlock-without-lock finding.
func TestLockPassNeedsLockAnnotations(t *testing.T) {
	run := func(p *isa.Program) *lockResult {
		g := analysis.BuildCFG(p)
		it := newInterp(p, g, geometry{ctas: 2, threads: 64, warps: 2})
		it.run()
		return analyzeLocks(it, g)
	}
	var ks []*kernels.Kernel
	for _, suite := range [][]*kernels.Kernel{kernels.SyncSuite(), kernels.SyncFreeSuite(),
		kernels.QuickSyncSuite(), kernels.QuickSyncFreeSuite()} {
		ks = append(ks, suite...)
	}
	locked := 0
	for _, k := range ks {
		p := k.Launch.Prog
		res := run(p)
		annotated := false
		for pc := range p.Code {
			annotated = annotated || p.Code[pc].HasAnn(isa.AnnLockAcquire) || p.Code[pc].HasAnn(isa.AnnLockRelease)
		}
		if !annotated {
			if res.mustHeld != nil || res.findings != nil {
				t.Errorf("%s has no lock annotation but was explored: %+v", p.Name, res)
			}
			continue
		}
		locked++
		if _, ok := res.mustHeld[0]; !ok {
			t.Errorf("%s carries a lock annotation but was not explored", p.Name)
		}
	}
	if locked == 0 || locked == len(ks) {
		t.Fatalf("%d of %d registered programs carry a lock annotation; the test needs both kinds", locked, len(ks))
	}

	releaseOnly := mustParse(t, "t", `
  ld.param %r2, 0
  atom.exch %r1, [%r2+0], 0  !release,sync
  exit
`)
	res := run(releaseOnly)
	if len(res.findings) != 1 || res.findings[0].Category != analysis.CatUnlockWithoutLock {
		t.Fatalf("release-only program: findings %v, want one unlock-without-lock", res.findings)
	}
}

// tbLoopSrc is TB's shape inside an outer spin lock: a try-lock whose
// CAS compares against a loaded register, so its success test cannot be
// read off the result, is re-entered around a retry loop. Each failed
// attempt leaves one more pending entry of the same acquire site, so the
// loop's program points see a lockset per pending count until they
// saturate at maxLocksetsPerPC. A saturated point forgets the outer lock,
// and the store at pc 14 becomes a reported race that the lock would
// otherwise exempt.
const tbLoopSrc = `
  ld.param %r2, 0
  ld.param %r3, 1
  ld.param %r9, 2
  mov %r4, %gtid
spin:
  atom.cas %r1, [%r2+0], 0, 1  !acquire,sync  // 4: outer lock, classifiable
  setp.ne %p0, %r1, 0
  @%p0 bra spin  !sib,sync
  mov %r5, 0
loop:
  ld.volatile %r6, [%r3+%r4]                  // 8
  atom.cas %r7, [%r3+%r4], %r6, -2  !acquire,sync  // 9: unclassifiable
  setp.eq %p1, %r7, %r6
  @!%p1 bra next reconv=next
  st.global [%r9+0], %r4                      // 12: outer lock still known
  st.global [%r3+%r4], %r4  !release,sync     // 13
next:
  st.global [%r9+1], %r5                      // 14: saturated
  add %r5, %r5, 1
  setp.lt %p2, %r5, 4
  @%p2 bra loop
  atom.exch %r1, [%r2+0], 0  !release,sync
  exit
`

// TestLocksetPendingMultiplicitySaturates pins TB's case: pending
// entries of one unclassifiable acquire site are counted, not merged, so
// the retry loop saturates, and the findings that follow from it stay
// as they are.
func TestLocksetPendingMultiplicitySaturates(t *testing.T) {
	res, _ := lockSetup(t, tbLoopSrc)
	if held := res.mustHeld[12]; len(held) != 1 {
		t.Fatalf("mustHeld[12] = %+v, want the outer lock from pc 4", held)
	}
	if held := res.mustHeld[14]; len(held) != 0 {
		t.Fatalf("mustHeld[14] = %+v, want empty: pc 14 saturates at %d locksets", held, maxLocksetsPerPC)
	}
	rep := Analyze(mustParse(t, "tb-loop", tbLoopSrc), Options{GridCTAs: 2, CTAThreads: 64})
	var got []string
	for _, f := range rep.Findings {
		got = append(got, fmt.Sprintf("%s@%d/%d", f.Category, f.PC, f.OtherPC))
	}
	want := []string{"race@14/0"}
	if !slices.Equal(got, want) {
		t.Fatalf("findings = %q, want %q", got, want)
	}
}

// TestLocksetReleaseFreesHeldLock: a path that holds a lock and also
// carries an unresolved attempt on the same word releases the lock it
// holds. Releasing the older, unresolved attempt instead would keep the
// lock "held" past its release: the store after it would be exempted as
// protected, and the thread would leak a lock it freed.
func TestLocksetReleaseFreesHeldLock(t *testing.T) {
	const src = `
  ld.param %r2, 0
  ld.param %r3, 1
  atom.cas %r5, [%r2+0], %r3, 1  !acquire,sync  // 2: success never tested
spin:
  atom.cas %r1, [%r2+0], 0, 1  !acquire,sync    // 3
  setp.ne %p0, %r1, 0
  @%p0 bra spin  !sib,sync
  atom.exch %r1, [%r2+0], 0  !release,sync     // 6
  st.global [%r3+0], %r1                       // 7: after the release
  exit
`
	res, _ := lockSetup(t, src)
	if held := res.mustHeld[7]; len(held) != 0 {
		t.Fatalf("mustHeld[7] = %+v, want empty after the release", held)
	}
	rep := Analyze(mustParse(t, "release", src), Options{GridCTAs: 2, CTAThreads: 64})
	var got []string
	for _, f := range rep.Findings {
		got = append(got, fmt.Sprintf("%s@%d/%d", f.Category, f.PC, f.OtherPC))
	}
	if want := []string{"race@7/0"}; !slices.Equal(got, want) {
		t.Fatalf("findings = %q, want %q", got, want)
	}
}

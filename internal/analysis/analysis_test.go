package analysis

import (
	"strings"
	"testing"

	"warpsched/internal/isa"
)

func mustParse(t *testing.T, name, src string) *isa.Program {
	t.Helper()
	p, err := isa.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func hasFinding(fs []Finding, cat Category, pc int32) bool {
	for _, f := range fs {
		if f.Category == cat && f.PC == pc {
			return true
		}
	}
	return false
}

// TestSeededBugs feeds the analyzer known-bad programs, one defect each,
// and requires the expected category at the expected PC.
func TestSeededBugs(t *testing.T) {
	cases := []struct {
		name string
		src  string
		cat  Category
		pc   int32
	}{
		{
			// The branch declares reconvergence past the true join: the
			// property GPGPU-Sim guarantees by construction is violated,
			// and lanes would stay masked through the join block.
			name: "wrong-reconv",
			src: `
  mov %r1, %tid               // 0
  setp.lt %p0, %r1, 8         // 1
  @%p0 bra skip reconv=after  // 2: IPDOM is skip, not after
  add %r1, %r1, 1             // 3
skip:
  mov %r2, %r1                // 4
after:
  exit                        // 5
`,
			cat: CatReconvMismatch, pc: 2,
		},
		{
			// A divergent branch trapped in an infinite loop: no path to
			// exit, so reconvergence is undefined.
			name: "no-exit-path",
			src: `
  mov %r1, 0           // 0
loop:
  add %r1, %r1, 1      // 1
  setp.lt %p0, %r1, 9  // 2
  @%p0 bra loop        // 3
  bra loop             // 4
  exit                 // 5: unreachable
`,
			cat: CatNoExitPath, pc: 3,
		},
		{
			name: "unreachable-code",
			src: `
  bra end   // 0
  nop       // 1
  nop       // 2
end:
  exit      // 3
`,
			cat: CatUnreachable, pc: 1,
		},
		{
			name: "uninitialized-register",
			src: `
  ld.param %r2, 0
  add %r1, %r3, 1          // 1: %r3 is never written
  st.global [%r2+0], %r1
  exit
`,
			cat: CatUninitReg, pc: 1,
		},
		{
			name: "pred-used-before-definition",
			src: `
  mov %r1, 1
  @%p2 mov %r1, 2          // 1: no setp ever defines %p2
  exit
`,
			cat: CatUninitPred, pc: 1,
		},
		{
			// A guarded setp writes only lanes whose guard holds, so it
			// does not definitely assign its predicate.
			name: "guarded-setp-not-definite",
			src: `
  mov %r1, %tid
  setp.lt %p0, %r1, 8
  @%p0 setp.eq %p1, %r1, 0 // 2: guarded definition only
  @%p1 mov %r1, 0          // 3
  exit
`,
			cat: CatUninitPred, pc: 3,
		},
		{
			name: "dead-write",
			src: `
  ld.param %r2, 0
  mov %r1, 5               // 1: overwritten before any read
  mov %r1, 6
  st.global [%r2+0], %r1
  exit
`,
			cat: CatDeadWrite, pc: 1,
		},
		{
			// The spin test re-reads through the non-coherent L1: the
			// awaited word is written by another thread, so the loop can
			// spin on a stale line forever.
			name: "spin-load-not-volatile",
			src: `
  ld.param %r2, 0
top:
  ld.global %r1, [%r2+0]     // 1: must be ld.volatile
  setp.ne %p0, %r1, 0
  @%p0 bra top    !sync
  exit
`,
			cat: CatSpinLoadNotVolatile, pc: 1,
		},
		{
			name: "unpaired-acquire",
			src: `
  ld.param %r2, 0
  atom.cas %r1, [%r2+0], 0, 1  !acquire,sync  // 1: never released
  exit
`,
			cat: CatUnpairedAcquire, pc: 1,
		},
		{
			name: "unpaired-release",
			src: `
  ld.param %r2, 0
  atom.exch %r1, [%r2+0], 0  !release,sync  // 1: never acquired
  exit
`,
			cat: CatUnpairedRelease, pc: 1,
		},
		{
			// The classic barrier-in-one-arm-of-an-if deadlock: lanes that
			// skip the arm never arrive.
			name: "divergent-barrier-in-arm",
			src: `
  mov %r1, %tid
  setp.lt %p0, %r1, 16
  @!%p0 bra join reconv=join
  bar.sync                  // 3
join:
  exit
`,
			cat: CatDivergentBarrier, pc: 3,
		},
		{
			name: "divergent-barrier-guarded",
			src: `
  mov %r1, %tid
  setp.lt %p0, %r1, 16
  @%p0 bar.sync             // 2
  exit
`,
			cat: CatDivergentBarrier, pc: 2,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := Analyze(mustParse(t, c.name, c.src))
			if !hasFinding(rep.Findings, c.cat, c.pc) {
				t.Errorf("want [%s] at pc %d, got findings: %v", c.cat, c.pc, rep.Findings)
			}
		})
	}
}

// TestWrongReconvOnBuiltProgram mutates a builder-produced program's
// reconvergence point and requires the analyzer to notice: this is the
// invariant the SIMT stack trusts without checking.
func TestWrongReconvOnBuiltProgram(t *testing.T) {
	b := isa.NewBuilder("mut")
	b.Mov(2, isa.S(isa.SpecTID))
	b.Setp(isa.LT, 0, isa.R(2), isa.I(8))
	b.IfA(0, false, 0, func() { b.Add(2, isa.R(2), isa.I(1)) })
	b.St(isa.R(2), isa.I(0), isa.R(2))
	b.Exit()
	p := b.MustBuild()
	if !Analyze(p).Clean() {
		t.Fatalf("built program not clean: %v", Analyze(p).Findings)
	}
	var branch int32 = -1
	for pc := int32(0); pc < p.Len(); pc++ {
		if p.At(pc).Op == isa.OpBra && p.At(pc).Guarded() {
			branch = pc
		}
	}
	if branch < 0 {
		t.Fatal("no guarded branch in built program")
	}
	p.Code[branch].Reconv++ // push reconvergence past the true join
	rep := Analyze(p)
	if !hasFinding(rep.Findings, CatReconvMismatch, branch) {
		t.Fatalf("mutated reconv not detected: %v", rep.Findings)
	}
}

// TestInvalidProgramReported ensures structurally invalid programs come
// back as a single CatInvalid finding rather than a panic in the CFG
// passes.
func TestInvalidProgramReported(t *testing.T) {
	p := &isa.Program{Name: "bad", Code: []isa.Instr{
		{Op: isa.OpSelp, Dst: 0, PSrc: isa.NumPreds, A: isa.I(1), B: isa.I(2), Guard: isa.NoGuard},
		{Op: isa.OpExit, Guard: isa.NoGuard},
	}}
	rep := Analyze(p)
	if len(rep.Findings) != 1 || rep.Findings[0].Category != CatInvalid || rep.Findings[0].PC != -1 {
		t.Fatalf("want one CatInvalid finding at pc -1, got %v", rep.Findings)
	}
	if !strings.Contains(rep.Findings[0].Message, "selp source predicate") {
		t.Fatalf("message = %q", rep.Findings[0].Message)
	}
}

const srcSuppressable = `
  mov %r1, %tid
  setp.lt %p0, %r1, 16
  @!%p0 bra join reconv=join
  bar.sync                  !nolint   // 3: finding suppressed in source
join:
  exit
`

func TestSuppression(t *testing.T) {
	t.Run("ann-nolint", func(t *testing.T) {
		rep := Analyze(mustParse(t, "s", srcSuppressable))
		if !rep.Clean() {
			t.Fatalf("nolint not honored: %v", rep.Findings)
		}
		if !hasFinding(rep.Suppressed, CatDivergentBarrier, 3) {
			t.Fatalf("suppression must stay visible, got %v", rep.Suppressed)
		}
	})
}

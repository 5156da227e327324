package isa

import (
	"strings"
	"testing"
)

const spinLockSrc = `
// Figure 7a-style spin lock: CAS acquire, critical section, in-loop release.
  ld.param %r10, 0        // lock base
  ld.param %r11, 1        // counter base
  mov %r6, 0              // done = 0
top:
  atom.cas %r7, [%r10+0], 0, 1   !acquire,sync
  setp.eq %p1, %r7, 0            !sync
  @!%p1 bra skip reconv=skip
  ld.volatile %r8, [%r11+0]
  add %r8, %r8, 1
  st.global [%r11+0], %r8
  mov %r6, 1
  membar                         !sync
  atom.exch %r9, [%r10+0], 0     !release,sync
skip:
  setp.eq %p2, %r6, 0            !sync
  @%p2 bra top                   !sib,sync
  exit
`

func TestParseSpinLock(t *testing.T) {
	p, err := Parse("spin", spinLockSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.TrueSIBs) != 1 {
		t.Fatalf("TrueSIBs = %v", p.TrueSIBs)
	}
	sib := p.At(p.TrueSIBs[0])
	if sib.Op != OpBra || !sib.HasAnn(AnnSIB) || !sib.HasAnn(AnnSync) {
		t.Fatalf("SIB wrong: %s", Disasm(sib))
	}
	if sib.Target >= p.TrueSIBs[0] {
		t.Fatal("SIB must be a backward branch")
	}
	// CAS carries the acquire annotation and parses all four operands.
	var cas *Instr
	for pc := int32(0); pc < p.Len(); pc++ {
		if p.At(pc).Op == OpAtomCAS {
			cas = p.At(pc)
		}
	}
	if cas == nil || !cas.HasAnn(AnnLockAcquire) || cas.C.Imm != 0 || cas.D.Imm != 1 {
		t.Fatalf("CAS wrong: %v", cas)
	}
	// The volatile load must carry the Vol flag.
	foundVol := false
	for pc := int32(0); pc < p.Len(); pc++ {
		if in := p.At(pc); in.Op == OpLd && in.Vol {
			foundVol = true
		}
	}
	if !foundVol {
		t.Fatal("ld.volatile not parsed as volatile")
	}
}

func TestParseMatchesBuilder(t *testing.T) {
	// The same program written both ways must produce identical code.
	src := `
  mov %r1, %gtid
  mov %r2, 0
loop:
  add %r2, %r2, %r1
  setp.lt %p0, %r2, 100
  @%p0 bra loop
  st.global [%r1+64], %r2
  exit
`
	parsed, err := Parse("x", src)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder("x")
	b.Mov(1, S(SpecGTID))
	b.Mov(2, I(0))
	b.Label("loop")
	b.Add(2, R(2), R(1))
	b.Setp(LT, 0, R(2), I(100))
	b.BraP(0, false, "loop", "")
	b.St(R(1), I(64), R(2))
	b.Exit()
	built := b.MustBuild()
	if parsed.Len() != built.Len() {
		t.Fatalf("lengths differ: %d vs %d", parsed.Len(), built.Len())
	}
	for pc := int32(0); pc < built.Len(); pc++ {
		if Disasm(parsed.At(pc)) != Disasm(built.At(pc)) {
			t.Fatalf("pc %d: %q vs %q", pc, Disasm(parsed.At(pc)), Disasm(built.At(pc)))
		}
	}
}

func TestParseSpecialsAndSelp(t *testing.T) {
	p, err := Parse("s", `
  mov %r1, %laneid
  mov %r2, %ntid
  mov %r3, %ctaid
  mov %r4, %clock
  setp.ge %p1, %r1, 16
  selp %r5, 1, 2, %p1
  ld.param %r6, 3
  exit
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.At(5).Op != OpSelp || p.At(5).PSrc != 1 {
		t.Fatalf("selp wrong: %s", Disasm(p.At(5)))
	}
	if p.At(6).Param != 3 {
		t.Fatal("ld.param index wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"frobnicate %r1, 2", "unknown opcode"},
		{"mov %r99, 1", "bad register"},
		{"setp.zz %p0, %r1, 2", "unknown comparison"},
		{"@%p0 bra fwd\nnop\nfwd:\nexit", "reconvergence"},
		{"bra nowhere", "undefined label"},
		{"atom.cas %r1, [%r2], 0", "atom.cas needs"},
		{"ld.global %r1, %r2", "expected [address]"},
		{"mov %r1, 1 !shiny", "unknown annotation"},
		{"add %r1, %r2", "needs dst, a, b"},
		{"ld.param %r1, 256", "bad parameter index"},
	}
	for _, c := range cases {
		_, err := Parse("bad", c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestParseAddressForms(t *testing.T) {
	p, err := Parse("addr", `
  ld.global %r1, [128]
  ld.global %r2, [%r1]
  ld.global %r3, [%r1+%r2]
  ld.global %r4, [%r1+12]
  ld %r5, [%r1+4]
  st [%r1+8], %r5
  bar.sync 0
  bar
  nop %r1, 5
  exit
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.At(0).A.Imm != 128 || p.At(0).B.Imm != 0 {
		t.Fatal("[imm] form wrong")
	}
	if p.At(1).A.Reg != 1 || p.At(1).B.Imm != 0 {
		t.Fatal("[reg] form wrong")
	}
	if p.At(2).B.Reg != 2 || p.At(2).B.Kind != OpdReg {
		t.Fatal("[reg+reg] form wrong")
	}
	if p.At(3).B.Imm != 12 {
		t.Fatal("[reg+imm] form wrong")
	}
	// The short forms and the operands bar.sync and nop ignore.
	if in := p.At(4); in.Op != OpLd || in.Vol || in.B.Imm != 4 {
		t.Fatalf("ld alias wrong: %s", Disasm(in))
	}
	if in := p.At(5); in.Op != OpSt || in.B.Imm != 8 || in.C.Reg != 5 {
		t.Fatalf("st alias wrong: %s", Disasm(in))
	}
	if p.At(6).Op != OpBar || p.At(7).Op != OpBar || p.At(8).Op != OpNop {
		t.Fatalf("bar.sync 0 / bar / nop %%r1, 5 wrong:\n%s", p.Listing())
	}
}

package isa

import (
	"strings"
	"testing"
)

func TestDisasmForms(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpMov, Dst: 3, A: I(7), Guard: NoGuard}, "mov %r3, 7"},
		{Instr{Op: OpSetp, Cmp: LT, PDst: 2, A: R(1), B: I(5), Guard: NoGuard}, "setp.lt %p2, %r1, 5"},
		{Instr{Op: OpBra, Target: 4, Reconv: 9, Guard: 1, GuardNeg: true}, "@!%p1 bra 4 reconv=9"},
		{Instr{Op: OpLd, Dst: 2, A: R(10), B: R(3), Guard: NoGuard}, "ld.global %r2, [%r10+%r3]"},
		{Instr{Op: OpSt, A: R(10), B: I(0), C: R(4), Guard: NoGuard}, "st.global [%r10+0], %r4"},
		{Instr{Op: OpAtomCAS, Dst: 5, A: R(8), B: R(9), C: I(0), D: I(1), Guard: NoGuard},
			"atom.cas %r5, [%r8+%r9], 0, 1"},
		{Instr{Op: OpBar, Guard: NoGuard}, "bar.sync"},
		{Instr{Op: OpExit, Guard: NoGuard}, "exit"},
		{Instr{Op: OpLd, Dst: 3, A: R(8), B: I(4), Vol: true, Guard: NoGuard}, "ld.volatile %r3, [%r8+4]"},
		{Instr{Op: OpLdParam, Dst: 1, Param: 0, Guard: NoGuard}, "ld.param %r1, 0"},
		{Instr{Op: OpAtomAdd, Dst: 4, A: R(9), B: I(0), C: I(1), Guard: NoGuard}, "atom.add %r4, [%r9+0], 1"},
		{Instr{Op: OpSelp, Dst: 5, A: I(1), B: R(2), PSrc: 3, Guard: NoGuard}, "selp %r5, 1, %r2, %p3"},
		{Instr{Op: OpSt, A: R(1), B: I(0), C: R(2), Guard: NoGuard, Ann: AnnNoLint, NoLint: []string{"race"}},
			"st.global [%r1+0], %r2 !nolint race"},
	}
	for _, c := range cases {
		if got := Disasm(&c.in); got != c.want {
			t.Errorf("Disasm = %q, want %q", got, c.want)
		}
	}
}

func TestDisasmAnnotations(t *testing.T) {
	in := Instr{Op: OpAtomCAS, Guard: NoGuard, Ann: AnnLockAcquire | AnnSync}
	out := Disasm(&in)
	if !strings.Contains(out, "acquire") || !strings.Contains(out, "sync") {
		t.Errorf("annotations missing: %q", out)
	}
	sib := Instr{Op: OpBra, Target: 0, Reconv: 1, Guard: 0, Ann: AnnSIB}
	if !strings.Contains(Disasm(&sib), "sib") {
		t.Error("SIB annotation missing")
	}
}

func TestListingRoundTripsEveryKernelOpcode(t *testing.T) {
	// Every opcode the builder can emit must disassemble to something
	// non-empty and unique enough to eyeball.
	b := NewBuilder("all-ops")
	b.Nop()
	b.Mov(1, I(1))
	b.Add(1, R(1), I(1))
	b.Sub(1, R(1), I(1))
	b.Mul(1, R(1), I(1))
	b.Div(1, R(1), I(1))
	b.Rem(1, R(1), I(1))
	b.Min(1, R(1), I(1))
	b.Max(1, R(1), I(1))
	b.And(1, R(1), I(1))
	b.Or(1, R(1), I(1))
	b.Xor(1, R(1), I(1))
	b.Shl(1, R(1), I(1))
	b.Shr(1, R(1), I(1))
	b.Setp(EQ, 0, R(1), I(0))
	b.Selp(2, 0, I(1), I(2))
	b.Ld(3, R(1), I(0))
	b.LdVol(3, R(1), I(0))
	b.St(R(1), I(0), R(3))
	b.AtomCAS(4, R(1), I(0), I(0), I(1))
	b.AtomExch(4, R(1), I(0), I(0))
	b.AtomAdd(4, R(1), I(0), I(1))
	b.AtomMax(4, R(1), I(0), I(1))
	b.LdParam(5, 0)
	b.Bar()
	b.Membar()
	b.Clock(6)
	b.Exit()
	p := b.MustBuild()
	listing := p.Listing()
	for pc := int32(0); pc < p.Len(); pc++ {
		if Disasm(p.At(pc)) == "" {
			t.Errorf("pc %d disassembles to empty", pc)
		}
	}
	if !strings.Contains(listing, "all-ops") {
		t.Error("listing missing kernel name")
	}
}

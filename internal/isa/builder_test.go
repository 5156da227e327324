package isa

import (
	"slices"
	"strings"
	"testing"
)

func TestBuilderLabelsAndFixups(t *testing.T) {
	b := NewBuilder("t")
	b.Mov(1, I(0))
	b.Label("top")
	b.Add(1, R(1), I(1))
	b.Setp(LT, 0, R(1), I(10))
	b.BraP(0, false, "top", "")
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	br := p.At(3)
	if br.Target != 1 {
		t.Errorf("branch target = %d, want 1", br.Target)
	}
	if br.Reconv != 4 {
		t.Errorf("backward branch reconv = %d, want fall-through 4", br.Reconv)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Bra("nowhere")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Fatalf("Build() = %v, want undefined label error", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Label("x")
	b.Nop()
	b.Label("x")
	b.Exit()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate label") {
		t.Fatalf("Build() = %v, want duplicate label error", err)
	}
}

func TestBuilderForwardCondNeedsReconv(t *testing.T) {
	b := NewBuilder("t")
	b.Setp(EQ, 0, I(0), I(0))
	b.BraP(0, false, "fwd", "")
	b.Nop()
	b.Label("fwd")
	b.Exit()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "reconvergence label") {
		t.Fatalf("Build() = %v, want reconvergence error", err)
	}
}

func TestBuilderIfShape(t *testing.T) {
	b := NewBuilder("t")
	b.Setp(EQ, 1, I(0), I(0))
	b.If(1, false, func() { b.Mov(2, I(7)) })
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	br := p.At(1)
	if br.Op != OpBra || !br.Guarded() || !br.GuardNeg {
		t.Fatalf("If should emit a negated guarded branch, got %s", Disasm(br))
	}
	if br.Target != 3 || br.Reconv != 3 {
		t.Fatalf("If branch target/reconv = %d/%d, want 3/3", br.Target, br.Reconv)
	}
}

func TestBuilderIfElseShape(t *testing.T) {
	b := NewBuilder("t")
	b.Setp(EQ, 1, I(0), I(0))
	b.IfElse(1, false,
		func() { b.Mov(2, I(1)) },
		func() { b.Mov(2, I(2)) })
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// 0 setp; 1 @!p1 bra else(4) reconv end(5); 2 mov; 3 bra end; 4 mov; 5 exit
	br := p.At(1)
	if br.Target != 4 || br.Reconv != 5 {
		t.Fatalf("IfElse guard branch target/reconv = %d/%d, want 4/5", br.Target, br.Reconv)
	}
	skip := p.At(3)
	if skip.Guarded() || skip.Target != 5 {
		t.Fatalf("IfElse skip branch wrong: %s", Disasm(skip))
	}
}

func TestBuilderWhileShape(t *testing.T) {
	b := NewBuilder("t")
	b.Mov(1, I(0))
	b.While(0, false,
		func() { b.Setp(LT, 0, R(1), I(4)) },
		func() { b.Add(1, R(1), I(1)) })
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// 0 mov; 1 setp; 2 @!p0 bra 5 (reconv 5); 3 add; 4 bra 1; 5 exit
	exitBr := p.At(2)
	if exitBr.Target != 5 || exitBr.Reconv != 5 {
		t.Fatalf("While exit branch target/reconv = %d/%d, want 5/5", exitBr.Target, exitBr.Reconv)
	}
	back := p.At(4)
	if back.Guarded() || back.Target != 1 {
		t.Fatalf("While backward branch wrong: %s", Disasm(back))
	}
}

// TestBuilderDoWhileDerivesSIB: Build marks a DoWhile's backward branch
// AnnSIB exactly when the loop is sync code whose body reads shared
// memory, and drops an authored AnnSIB that the rule does not support.
func TestBuilderDoWhileDerivesSIB(t *testing.T) {
	b := NewBuilder("t")
	loop := func(sync bool, body func()) {
		b.DoWhile(0, false, body, func() { b.Setp(EQ, 0, I(0), I(0)) })
		if sync {
			b.AnnotateLast(AnnSync)
		}
	}
	loop(true, func() { b.AtomCAS(1, I(0), I(0), I(0), I(1)) }) // 0-2: SIB
	loop(false, func() { b.LdVol(1, I(0), I(0)) })              // 3-5: not sync
	b.AnnotateLast(AnnSIB)
	loop(true, func() { b.LdVol(1, I(0), I(0)) }) // 6-8: SIB
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.TrueSIBs, []int32{2, 8}) {
		t.Fatalf("TrueSIBs = %v, want [2 8]", p.TrueSIBs)
	}
	for pc := range p.Code {
		if in := &p.Code[pc]; in.HasAnn(AnnSIB) != slices.Contains(p.TrueSIBs, int32(pc)) {
			t.Errorf("pc %d: AnnSIB disagrees with TrueSIBs: %s", pc, Disasm(in))
		}
	}
	br := p.At(2)
	if br.Target != 0 || br.Reconv != 3 {
		t.Fatalf("DoWhile SIB branch wrong: %s", Disasm(br))
	}
}

func TestBuilderForZeroTrip(t *testing.T) {
	b := NewBuilder("t")
	b.For(1, I(5), I(5), 1, 0, func() { b.Mov(2, I(1)) })
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The top guard must branch past the body when start >= limit.
	guard := p.At(2)
	if guard.Op != OpBra || !guard.Guarded() {
		t.Fatalf("For should emit a guarded top test, got %s", Disasm(guard))
	}
}

func TestBuilderAnnotateScope(t *testing.T) {
	b := NewBuilder("t")
	b.Nop()
	b.Annotate(AnnSync, func() {
		b.Nop()
		b.Annotate(AnnLockAcquire, func() { b.Nop() })
		b.Nop()
	})
	b.Nop()
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.At(0).Ann != 0 || p.At(4).Ann != 0 {
		t.Error("annotation leaked outside Annotate scope")
	}
	if !p.At(1).HasAnn(AnnSync) || !p.At(3).HasAnn(AnnSync) {
		t.Error("AnnSync not applied inside scope")
	}
	if !p.At(2).HasAnn(AnnSync) || !p.At(2).HasAnn(AnnLockAcquire) {
		t.Error("nested annotations must combine")
	}
}

func TestBuilderALUBadOpcode(t *testing.T) {
	b := NewBuilder("t")
	b.ALU(OpSetp, 1, R(0), R(0))
	if _, err := b.Build(); err == nil {
		t.Fatal("ALU with non-ALU opcode must fail Build")
	}
}

func TestListingContainsLabels(t *testing.T) {
	b := NewBuilder("t")
	b.Label("entry")
	b.Nop()
	b.Exit()
	p := b.MustBuild()
	if !strings.Contains(p.Listing(), "entry:") {
		t.Error("Listing should render labels")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild should panic on invalid program")
		}
	}()
	b := NewBuilder("t")
	b.Bra("missing")
	b.MustBuild()
}

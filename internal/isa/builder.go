package isa

import "fmt"

// Builder assembles a Program from a sequence of emit calls. Labels may be
// referenced before they are defined; Build patches them. Structured
// helpers (If, IfElse, While, For, DoWhile) emit the branch shapes used by
// the paper's kernels with correct reconvergence PCs.
//
// The builder records errors internally and reports the first one from
// Build, so kernel definitions can be written without per-call error
// handling.
type Builder struct {
	name   string
	code   []Instr
	labels map[string]int32
	fixups []fixup
	anon   int
	ann    Ann // annotation bits ORed onto every emitted instruction
	err    error
}

type fixup struct {
	pc     int32
	label  string // branch target
	reconv string // reconvergence label ("" = none pending)
}

// NewBuilder returns an empty Builder for a kernel with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int32)}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("isa: %q: %s", b.name, fmt.Sprintf(format, args...))
	}
}

func (b *Builder) pc() int32 { return int32(len(b.code)) }

// Label defines label name at the current PC.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return
	}
	b.labels[name] = b.pc()
}

func (b *Builder) anonLabel(prefix string) string {
	b.anon++
	return fmt.Sprintf(".%s%d", prefix, b.anon)
}

// Emit appends a raw instruction, applying the current annotation scope.
// Its Guard is taken as given, and the zero value guards on predicate 0:
// an unguarded instruction must set Guard to NoGuard, as every builder
// helper does.
func (b *Builder) Emit(in Instr) *Builder {
	in.Ann |= b.ann
	b.code = append(b.code, in)
	return b
}

func (b *Builder) emit(in Instr) *Builder {
	in.Guard = NoGuard
	return b.Emit(in)
}

// Annotate runs fn with annotation bits a ORed onto every instruction it
// emits. Used to mark synchronization regions (AnnSync).
func (b *Builder) Annotate(a Ann, fn func()) {
	prev := b.ann
	b.ann = prev | a
	fn()
	b.ann = prev
}

// AnnotateLast ORs annotation bits onto the most recently emitted
// instruction.
func (b *Builder) AnnotateLast(a Ann) {
	if len(b.code) == 0 {
		b.fail("AnnotateLast with no instructions")
		return
	}
	b.code[len(b.code)-1].Ann |= a
}

// NoLintLast marks the most recently emitted instruction AnnNoLint,
// restricted to the given finding classes (analysis category or class
// names). With no classes the suppression covers every class, matching
// AnnotateLast(AnnNoLint). Repeated calls accumulate classes.
func (b *Builder) NoLintLast(classes ...string) {
	if len(b.code) == 0 {
		b.fail("NoLintLast with no instructions")
		return
	}
	in := &b.code[len(b.code)-1]
	in.Ann |= AnnNoLint
	in.NoLint = append(in.NoLint, classes...)
}

// --- straight-line emitters ---

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.emit(Instr{Op: OpNop}) }

// Mov emits dst <- a.
func (b *Builder) Mov(dst Reg, a Operand) *Builder {
	return b.emit(Instr{Op: OpMov, Dst: dst, A: a})
}

// ALU emits dst <- a <op> b for any two-source ALU opcode.
func (b *Builder) ALU(op Op, dst Reg, a, c Operand) *Builder {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpMin, OpMax, OpAnd, OpOr, OpXor, OpShl, OpShr:
	default:
		b.fail("ALU called with non-ALU opcode %v", op)
	}
	return b.emit(Instr{Op: op, Dst: dst, A: a, B: c})
}

// Add emits dst <- a + c; the remaining arithmetic helpers are analogous.
func (b *Builder) Add(dst Reg, a, c Operand) *Builder { return b.ALU(OpAdd, dst, a, c) }
func (b *Builder) Sub(dst Reg, a, c Operand) *Builder { return b.ALU(OpSub, dst, a, c) }
func (b *Builder) Mul(dst Reg, a, c Operand) *Builder { return b.ALU(OpMul, dst, a, c) }
func (b *Builder) Div(dst Reg, a, c Operand) *Builder { return b.ALU(OpDiv, dst, a, c) }
func (b *Builder) Rem(dst Reg, a, c Operand) *Builder { return b.ALU(OpRem, dst, a, c) }
func (b *Builder) Min(dst Reg, a, c Operand) *Builder { return b.ALU(OpMin, dst, a, c) }
func (b *Builder) Max(dst Reg, a, c Operand) *Builder { return b.ALU(OpMax, dst, a, c) }
func (b *Builder) And(dst Reg, a, c Operand) *Builder { return b.ALU(OpAnd, dst, a, c) }
func (b *Builder) Or(dst Reg, a, c Operand) *Builder  { return b.ALU(OpOr, dst, a, c) }
func (b *Builder) Xor(dst Reg, a, c Operand) *Builder { return b.ALU(OpXor, dst, a, c) }
func (b *Builder) Shl(dst Reg, a, c Operand) *Builder { return b.ALU(OpShl, dst, a, c) }
func (b *Builder) Shr(dst Reg, a, c Operand) *Builder { return b.ALU(OpShr, dst, a, c) }

// Setp emits pd <- a <cmp> c.
func (b *Builder) Setp(cmp Cmp, pd Pred, a, c Operand) *Builder {
	return b.emit(Instr{Op: OpSetp, Cmp: cmp, PDst: pd, A: a, B: c})
}

// Selp emits dst <- p ? a : c.
func (b *Builder) Selp(dst Reg, p Pred, a, c Operand) *Builder {
	return b.emit(Instr{Op: OpSelp, Dst: dst, PSrc: p, A: a, B: c})
}

// Ld emits dst <- mem[base + off].
func (b *Builder) Ld(dst Reg, base, off Operand) *Builder {
	return b.emit(Instr{Op: OpLd, Dst: dst, A: base, B: off})
}

// LdVol emits a volatile load that bypasses the L1 (required for data
// mutated by other SMs, e.g. lock-protected values and wait flags).
func (b *Builder) LdVol(dst Reg, base, off Operand) *Builder {
	return b.emit(Instr{Op: OpLd, Dst: dst, A: base, B: off, Vol: true})
}

// St emits mem[base + off] <- val.
func (b *Builder) St(base, off, val Operand) *Builder {
	return b.emit(Instr{Op: OpSt, A: base, B: off, C: val})
}

// AtomCAS emits dst <- atomicCAS(&mem[base+off], cmp, val).
func (b *Builder) AtomCAS(dst Reg, base, off, cmp, val Operand) *Builder {
	return b.emit(Instr{Op: OpAtomCAS, Dst: dst, A: base, B: off, C: cmp, D: val})
}

// AtomExch emits dst <- atomicExch(&mem[base+off], val).
func (b *Builder) AtomExch(dst Reg, base, off, val Operand) *Builder {
	return b.emit(Instr{Op: OpAtomExch, Dst: dst, A: base, B: off, C: val})
}

// AtomAdd emits dst <- atomicAdd(&mem[base+off], val).
func (b *Builder) AtomAdd(dst Reg, base, off, val Operand) *Builder {
	return b.emit(Instr{Op: OpAtomAdd, Dst: dst, A: base, B: off, C: val})
}

// AtomMax emits dst <- atomicMax(&mem[base+off], val).
func (b *Builder) AtomMax(dst Reg, base, off, val Operand) *Builder {
	return b.emit(Instr{Op: OpAtomMax, Dst: dst, A: base, B: off, C: val})
}

// LdParam emits dst <- kernel parameter idx.
func (b *Builder) LdParam(dst Reg, idx uint8) *Builder {
	return b.emit(Instr{Op: OpLdParam, Dst: dst, Param: idx})
}

// Bar emits a CTA barrier.
func (b *Builder) Bar() *Builder { return b.emit(Instr{Op: OpBar}) }

// Membar emits a memory fence.
func (b *Builder) Membar() *Builder { return b.emit(Instr{Op: OpMembar}) }

// Exit emits thread exit.
func (b *Builder) Exit() *Builder { return b.emit(Instr{Op: OpExit}) }

// Clock emits dst <- %clock.
func (b *Builder) Clock(dst Reg) *Builder { return b.Mov(dst, S(SpecClock)) }

// --- branches ---

// Bra emits an unconditional branch to label.
func (b *Builder) Bra(label string) *Builder {
	b.fixups = append(b.fixups, fixup{pc: b.pc(), label: label})
	return b.emit(Instr{Op: OpBra, Target: -1, Reconv: NoReconv})
}

// BraP emits a conditional branch guarded by predicate p (negated when neg
// is true) to label. reconv names the reconvergence label; if empty the
// branch must be backward and reconverges at the fall-through instruction
// (the paper's bottom-tested spin-loop shape, Figure 7a), which Build
// verifies.
func (b *Builder) BraP(p Pred, neg bool, label, reconv string) *Builder {
	b.fixups = append(b.fixups, fixup{pc: b.pc(), label: label, reconv: reconv})
	in := Instr{Op: OpBra, Target: -1, Reconv: NoReconv, Guard: int8(p), GuardNeg: neg}
	in.Ann |= b.ann
	b.code = append(b.code, in)
	return b
}

// --- structured control flow ---

// If emits: if (pred (neg? !:)) { then() }, reconverging after the body.
func (b *Builder) If(p Pred, neg bool, then func()) {
	end := b.anonLabel("endif")
	// Branch around the body when the condition is false.
	b.BraP(p, !neg, end, end)
	then()
	b.Label(end)
}

// IfA is If with annotation bits applied to the guarding branch (e.g.
// AnnWaitCheck: the branch is taken when the condition fails, so taken
// lanes are wait-exit failures).
func (b *Builder) IfA(p Pred, neg bool, ann Ann, then func()) {
	end := b.anonLabel("endif")
	b.BraP(p, !neg, end, end)
	b.AnnotateLast(ann)
	then()
	b.Label(end)
}

// IfElse emits a two-armed conditional, reconverging after both arms.
func (b *Builder) IfElse(p Pred, neg bool, then, els func()) {
	elseL := b.anonLabel("else")
	end := b.anonLabel("endif")
	b.BraP(p, !neg, elseL, end)
	then()
	b.Bra(end)
	b.Label(elseL)
	els()
	b.Label(end)
}

// While emits a top-tested loop: cond() must set predicate p; the loop
// body runs while p (negated when neg is true) holds.
func (b *Builder) While(p Pred, neg bool, cond, body func()) {
	top := b.anonLabel("while")
	end := b.anonLabel("endwhile")
	b.Label(top)
	cond()
	b.BraP(p, !neg, end, end)
	body()
	b.Bra(top)
	b.Label(end)
}

// DoWhile emits the paper's bottom-tested loop shape (Figure 7a): the body
// runs at least once; cond() sets predicate p; the backward branch taken
// while p (negated when neg) holds is the loop's spin-inducing-branch
// position. Build decides whether it is a SIB (see spinInducing).
func (b *Builder) DoWhile(p Pred, neg bool, body, cond func()) {
	top := b.anonLabel("do")
	b.Label(top)
	body()
	cond()
	b.BraP(p, neg, top, "")
}

// For emits a counted loop: cnt runs from start to limit-1 in steps of
// step, with the bottom-tested backward-branch shape of the Kmeans loop in
// paper Figure 7c. The body must not clobber cnt or the scratch predicate.
func (b *Builder) For(cnt Reg, start, limit Operand, step int32, p Pred, body func()) {
	b.Mov(cnt, start)
	top := b.anonLabel("for")
	end := b.anonLabel("endfor")
	// Guard against zero-trip loops with a top test.
	b.Setp(LT, p, R(cnt), limit)
	b.BraP(p, true, end, end)
	b.Label(top)
	body()
	b.Add(cnt, R(cnt), I(step))
	b.Setp(LT, p, R(cnt), limit)
	b.BraP(p, false, top, "")
	b.Label(end)
}

// Build resolves labels and reconvergence points, validates the program,
// derives its SIB ground truth and returns it. AnnSIB is Build's output,
// not an input: an authored AnnSIB is dropped and every branch
// spinInducing accepts gets the bit and a TrueSIBs entry.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, f := range b.fixups {
		t, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa: %q: undefined label %q", b.name, f.label)
		}
		in := &b.code[f.pc]
		in.Target = t
		if !in.Guarded() {
			continue
		}
		if f.reconv != "" {
			r, ok := b.labels[f.reconv]
			if !ok {
				return nil, fmt.Errorf("isa: %q: undefined reconvergence label %q", b.name, f.reconv)
			}
			in.Reconv = r
		} else {
			if t > f.pc {
				return nil, fmt.Errorf("isa: %q pc=%d: forward conditional branch to %q needs an explicit reconvergence label", b.name, f.pc, f.label)
			}
			in.Reconv = f.pc + 1
		}
	}
	p := &Program{Name: b.name, Code: b.code, Labels: b.labels}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for pc := range p.Code {
		in := &p.Code[pc]
		in.Ann &^= AnnSIB
		if spinInducing(p.Code, int32(pc)) {
			in.Ann |= AnnSIB
			p.TrueSIBs = append(p.TrueSIBs, int32(pc))
		}
	}
	return p, nil
}

// spinInducing reports whether the instruction at pc is a spin-inducing
// branch: a guarded backward branch in synchronization code (AnnSync)
// whose loop body [Target, pc) holds an atomic or an ld.volatile, so each
// iteration re-reads a word another thread writes. A sync loop that waits
// on the clock alone (Figure 3a's back-off delay) is overhead but not a
// SIB.
func spinInducing(code []Instr, pc int32) bool {
	in := &code[pc]
	if in.Op != OpBra || !in.Guarded() || in.Target > pc || !in.HasAnn(AnnSync) {
		return false
	}
	for _, body := range code[in.Target:pc] {
		if body.Op.IsAtomic() || body.Op == OpLd && body.Vol {
			return true
		}
	}
	return false
}

// MustBuild is Build that panics on error; kernel definitions are static
// so a failure is a programming bug.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

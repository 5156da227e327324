package simt

import (
	"fmt"
	"math/bits"

	"warpsched/internal/isa"
)

// Class is what, beyond the scoreboard, gates an instruction's issue.
type Class uint8

const (
	// ClassPlain instructions wait on the scoreboard only.
	ClassPlain Class = iota
	// ClassMem instructions also need LSQ space and a per-warp memory slot.
	ClassMem
	// ClassMembar needs the warp's outstanding memory operations drained.
	ClassMembar
)

// Table is a program decoded once for execution: one Inst per PC. The
// engine builds it once per launch (sim.New) and every warp of the launch
// shares it; NewWarp builds one for callers that have no engine. A Table is
// immutable after Decode.
type Table struct {
	// Prog is the program the table was decoded from.
	Prog *isa.Program
	code []Inst
	// nregs is one past the highest register the program names: the rows
	// a warp's register file starts with.
	nregs int
}

// Inst is one decoded instruction: the scoreboard bits and readiness class
// the engine's ready probe tests, and the operand forms Execute works from,
// so neither walks the isa.Instr again.
type Inst struct {
	// RegMask and PredMask are the scoreboard bits the instruction waits
	// on: every register it reads or writes, and its guard, selp source and
	// setp destination predicates.
	RegMask  uint64
	PredMask uint64
	// Class is the instruction's readiness class.
	Class Class

	op         isa.Op
	cmp        isa.Cmp
	dst        isa.Reg
	pdst, psrc isa.Pred
	guard      int8 // isa.NoGuard when unguarded
	guardNeg   bool
	param      uint8
	// a..d are the source operands. Slots the opcode does not read decode
	// as the constant 0, so memory instructions evaluate c and d
	// unconditionally.
	a, b, c, d     operand
	target, reconv int32
}

// opdKind is how an operand's value depends on the lane and the warp.
type opdKind uint8

const (
	opdConst  opdKind = iota // val: immediates, unused slots, unknown specials
	opdReg                   // register row val
	opdLaneID                // lane
	opdTID                   // warp's first thread index in its CTA + lane
	opdGTID                  // warp's first global thread id + lane
	opdNTID                  // warp-uniform from here on
	opdCTAID
	opdNCTAID
	opdWarpID
	opdSMID
	opdClock
)

type operand struct {
	kind opdKind
	val  uint32 // constant, or register index
}

func decodeOperand(o isa.Operand) operand {
	switch o.Kind {
	case isa.OpdReg:
		return operand{kind: opdReg, val: uint32(o.Reg)}
	case isa.OpdImm:
		return operand{val: uint32(o.Imm)}
	case isa.OpdSpecial:
		switch o.Spec {
		case isa.SpecTID:
			return operand{kind: opdTID}
		case isa.SpecNTID:
			return operand{kind: opdNTID}
		case isa.SpecCTAID:
			return operand{kind: opdCTAID}
		case isa.SpecNCTAID:
			return operand{kind: opdNCTAID}
		case isa.SpecLaneID:
			return operand{kind: opdLaneID}
		case isa.SpecWarpID:
			return operand{kind: opdWarpID}
		case isa.SpecSMID:
			return operand{kind: opdSMID}
		case isa.SpecGTID:
			return operand{kind: opdGTID}
		case isa.SpecClock:
			return operand{kind: opdClock}
		}
	}
	return operand{}
}

// Decode builds p's table.
func Decode(p *isa.Program) *Table {
	t := &Table{Prog: p, code: make([]Inst, p.Len())}
	for pc := range t.code {
		in := p.At(int32(pc))
		d := &t.code[pc]
		d.op, d.cmp, d.dst, d.pdst, d.psrc = in.Op, in.Cmp, in.Dst, in.PDst, in.PSrc
		d.guard, d.guardNeg, d.param = in.Guard, in.GuardNeg, in.Param
		d.target, d.reconv = in.Target, in.Reconv

		if in.WritesReg() {
			d.RegMask |= 1 << uint(in.Dst)
		}
		for _, o := range [...]isa.Operand{in.A, in.B, in.C, in.D} {
			if o.Kind == isa.OpdReg {
				d.RegMask |= 1 << uint(o.Reg)
			}
		}
		t.nregs = max(t.nregs, bits.Len64(d.RegMask))
		if in.Op == isa.OpSetp {
			d.PredMask |= 1 << uint(in.PDst)
		}
		if in.Op == isa.OpSelp {
			d.PredMask |= 1 << uint(in.PSrc)
		}
		if in.Guarded() {
			d.PredMask |= 1 << uint(in.Guard)
		}
		switch {
		case in.Op.IsMem():
			d.Class = ClassMem
		case in.Op == isa.OpMembar:
			d.Class = ClassMembar
		}

		switch in.Op {
		case isa.OpMov:
			d.a = decodeOperand(in.A)
		case isa.OpAtomCAS:
			d.d = decodeOperand(in.D)
			fallthrough
		case isa.OpSt, isa.OpAtomExch, isa.OpAtomAdd, isa.OpAtomMax:
			d.c = decodeOperand(in.C)
			fallthrough
		case isa.OpLd, isa.OpSetp, isa.OpSelp,
			isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem,
			isa.OpMin, isa.OpMax, isa.OpAnd, isa.OpOr, isa.OpXor,
			isa.OpShl, isa.OpShr:
			d.a, d.b = decodeOperand(in.A), decodeOperand(in.B)
		}
	}
	return t
}

// At returns the decoded instruction at pc.
func (t *Table) At(pc int32) *Inst { return &t.code[pc] }

// CheckParams reports the first ld.param whose index is outside a launch
// of n parameters.
func (t *Table) CheckParams(n int) error {
	for pc := range t.code {
		if d := &t.code[pc]; d.op == isa.OpLdParam && int(d.param) >= n {
			return fmt.Errorf("simt: %s: pc=%d: ld.param %d out of range (%d params)",
				t.Prog.Name, pc, d.param, n)
		}
	}
	return nil
}

// Package isa defines the PTX-like instruction set executed by the SIMT
// simulator. It plays the role GPGPU-Sim's PTX front end plays in the
// paper's evaluation: kernels are expressed as small assembly programs
// (see internal/kernels) built with the label-based Builder in this
// package.
//
// Design notes:
//
//   - Registers hold 32-bit values; arithmetic is two's-complement int32.
//   - Memory is word addressed: one address names one 32-bit word. A
//     cache line / coalescing segment is LineWords words (128 bytes).
//   - Every potentially divergent (conditional) branch carries an explicit
//     reconvergence PC, the information GPGPU-Sim derives from immediate
//     post-dominators. The Builder computes it for structured control
//     flow and for the paper's bottom-tested spin loops.
//   - Instructions carry annotations (lock acquire/release, wait check,
//     ground-truth spin-inducing branch, synchronization region) used by
//     the statistics layer to reproduce the paper's figures and by the
//     DDOS evaluation as ground truth.
package isa

import (
	"fmt"
	"strconv"
)

// Reg identifies a per-thread general purpose register.
type Reg uint8

// Pred identifies a per-thread 1-bit predicate register (setp target).
type Pred uint8

// Architectural limits. 64 GPRs and 8 predicates comfortably cover every
// kernel in the suite while keeping per-thread state small.
const (
	NumRegs  = 64
	NumPreds = 8
)

// WarpSize is the number of threads per warp (NVIDIA-style).
const WarpSize = 32

// LineWords is the number of 32-bit words in one cache line / coalescing
// segment: 32 words = 128 bytes, matching Table II's cache geometry.
const LineWords = 32

// Special names a read-only special register.
type Special uint8

const (
	// SpecTID is the thread index within its CTA (threadIdx.x).
	SpecTID Special = iota
	// SpecNTID is the number of threads per CTA (blockDim.x).
	SpecNTID
	// SpecCTAID is the CTA index within the grid (blockIdx.x).
	SpecCTAID
	// SpecNCTAID is the number of CTAs in the grid (gridDim.x).
	SpecNCTAID
	// SpecLaneID is the thread's lane within its warp (0..31).
	SpecLaneID
	// SpecWarpID is the warp's index within its CTA.
	SpecWarpID
	// SpecSMID is the SM the CTA is resident on.
	SpecSMID
	// SpecGTID is the global thread id: CTAID*NTID + TID.
	SpecGTID
	// SpecClock reads the SM cycle counter (clock() in CUDA); used by the
	// software back-off delay code of paper Figure 3a.
	SpecClock
)

var specialNames = [...]string{
	SpecTID: "%tid", SpecNTID: "%ntid", SpecCTAID: "%ctaid",
	SpecNCTAID: "%nctaid", SpecLaneID: "%laneid", SpecWarpID: "%warpid",
	SpecSMID: "%smid", SpecGTID: "%gtid", SpecClock: "%clock",
}

func (s Special) String() string {
	if int(s) < len(specialNames) {
		return specialNames[s]
	}
	return "%spec" + strconv.Itoa(int(s))
}

// OperandKind discriminates Operand variants.
type OperandKind uint8

const (
	// OpdNone marks an unused operand slot.
	OpdNone OperandKind = iota
	// OpdReg reads a general-purpose register.
	OpdReg
	// OpdImm is a 32-bit immediate.
	OpdImm
	// OpdSpecial reads a special register.
	OpdSpecial
)

// Operand is a source operand: a register, an immediate or a special
// register.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Imm  int32
	Spec Special
}

// R makes a register operand.
func R(r Reg) Operand { return Operand{Kind: OpdReg, Reg: r} }

// I makes an immediate operand.
func I(v int32) Operand { return Operand{Kind: OpdImm, Imm: v} }

// S makes a special-register operand.
func S(s Special) Operand { return Operand{Kind: OpdSpecial, Spec: s} }

func (o Operand) String() string { return string(o.appendTo(nil)) }

// appendTo appends the operand as String renders it.
func (o Operand) appendTo(b []byte) []byte {
	switch o.Kind {
	case OpdReg:
		return appendIndexed(b, "%r", int64(o.Reg))
	case OpdImm:
		return appendIndexed(b, "", int64(o.Imm))
	case OpdSpecial:
		return append(b, o.Spec.String()...)
	default:
		return append(b, '_')
	}
}

// Op is an opcode.
type Op uint8

const (
	// OpNop does nothing (issue slot consumed).
	OpNop Op = iota
	// OpMov dst <- A.
	OpMov
	// OpAdd dst <- A + B. Likewise for the other ALU ops.
	OpAdd
	OpSub
	OpMul
	OpDiv // dst <- A / B (signed; B==0 yields 0)
	OpRem // dst <- A % B (signed; B==0 yields 0)
	OpMin
	OpMax
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // logical shift right
	// OpSetp sets predicate PDst <- A <Cmp> B.
	OpSetp
	// OpSelp dst <- Guard? A : B selected by predicate PSrc.
	OpSelp
	// OpBra branches to Target; with a guard it is a potentially divergent
	// branch and must carry a Reconv PC.
	OpBra
	// OpExit retires the thread.
	OpExit
	// OpBar is a CTA-wide barrier (bar.sync 0).
	OpBar
	// OpMembar is a memory fence (__threadfence); modeled as a timing-only
	// LSU drain.
	OpMembar
	// OpLd loads dst <- mem[A + B].
	OpLd
	// OpSt stores mem[A + B] <- C.
	OpSt
	// OpAtomCAS dst <- atomicCAS(&mem[A+B], C, D): dst receives the old
	// value; the word is set to D iff old == C.
	OpAtomCAS
	// OpAtomExch dst <- atomicExch(&mem[A+B], C).
	OpAtomExch
	// OpAtomAdd dst <- atomicAdd(&mem[A+B], C).
	OpAtomAdd
	// OpAtomMax dst <- atomicMax(&mem[A+B], C) (signed).
	OpAtomMax
	// OpLdParam loads dst <- kernel parameter Param (uniform across threads).
	OpLdParam
	opCount
)

var opNames = [...]string{
	OpNop: "nop", OpMov: "mov", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpDiv: "div", OpRem: "rem", OpMin: "min", OpMax: "max", OpAnd: "and",
	OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr", OpSetp: "setp",
	OpSelp: "selp", OpBra: "bra", OpExit: "exit", OpBar: "bar.sync",
	OpMembar: "membar", OpLd: "ld.global", OpSt: "st.global",
	OpAtomCAS: "atom.cas", OpAtomExch: "atom.exch", OpAtomAdd: "atom.add",
	OpAtomMax: "atom.max", OpLdParam: "ld.param",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op%d", uint8(op))
}

// IsMem reports whether the opcode goes through the load/store unit.
func (op Op) IsMem() bool {
	switch op {
	case OpLd, OpSt, OpAtomCAS, OpAtomExch, OpAtomAdd, OpAtomMax:
		return true
	}
	return false
}

// IsAtomic reports whether the opcode is a read-modify-write atomic.
func (op Op) IsAtomic() bool {
	switch op {
	case OpAtomCAS, OpAtomExch, OpAtomAdd, OpAtomMax:
		return true
	}
	return false
}

// Cmp is a comparison operator for OpSetp.
type Cmp uint8

const (
	EQ Cmp = iota
	NE
	LT
	LE
	GT
	GE
)

var cmpNames = [...]string{EQ: "eq", NE: "ne", LT: "lt", LE: "le", GT: "gt", GE: "ge"}

func (c Cmp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("cmp%d", uint8(c))
}

// Eval applies the comparison to two values using signed semantics.
func (c Cmp) Eval(a, b uint32) bool {
	sa, sb := int32(a), int32(b)
	switch c {
	case EQ:
		return sa == sb
	case NE:
		return sa != sb
	case LT:
		return sa < sb
	case LE:
		return sa <= sb
	case GT:
		return sa > sb
	case GE:
		return sa >= sb
	}
	return false
}

// Ann is a bitset of instruction annotations used by statistics collection
// and as DDOS ground truth.
type Ann uint16

const (
	// AnnSIB marks the ground-truth spin-inducing branch of a busy-wait
	// loop (the paper's SIB). Builder.Build derives it from AnnSync code
	// and overwrites any authored bit; `sib` is only its printed form.
	// DDOS must discover these dynamically; the bit is used only for
	// TSDR/FSDR accounting and for the "static annotation" BOWS mode.
	AnnSIB Ann = 1 << iota
	// AnnLockAcquire marks an atomic that attempts a lock acquire
	// (atomicCAS(mutex,0,1) in Figure 1a). Per-lane success/failure is
	// classified for Figure 2 / Figure 12.
	AnnLockAcquire
	// AnnLockRelease marks the matching release (atomicExch(mutex,0)).
	AnnLockRelease
	// AnnWaitCheck marks the branch that re-tests a wait-and-signal
	// condition (Figure 6c); taken = wait exit fail, fall-through = wait
	// exit success.
	AnnWaitCheck
	// AnnSync marks instructions belonging to synchronization code
	// (busy-wait loop, acquire/release) rather than useful work; used for
	// the Figure 1c/1d overhead split.
	AnnSync
	// AnnNoLint suppresses static-analysis findings reported at this
	// instruction (internal/analysis). It is the ISA-level analogue of a
	// //lint:ignore comment: kernels that intentionally violate a lint
	// rule annotate the offending instruction, and warplint reports the
	// finding as suppressed instead of failing. It has no effect on
	// execution, statistics or DDOS ground truth.
	//
	// A bare `!nolint` suppresses every finding class at the instruction.
	// `!nolint race,lockorder` (Instr.NoLint non-empty) restricts the
	// suppression to the named classes, so silencing a known-benign data
	// race cannot also mute reconvergence or dataflow findings.
	AnnNoLint
)

// NoGuard is the Guard value of an unguarded instruction.
const NoGuard int8 = -1

// NoReconv marks a branch without a reconvergence point (unconditional).
const NoReconv int32 = -1

// Instr is one decoded instruction. All fields are value types so programs
// can be copied and shared freely between SMs.
type Instr struct {
	Op   Op
	Cmp  Cmp  // comparison for OpSetp
	Dst  Reg  // destination GPR (Mov/ALU/Ld/atomics/Selp/LdParam)
	PDst Pred // destination predicate (Setp)
	PSrc Pred // source predicate (Selp)
	A    Operand
	B    Operand
	C    Operand
	D    Operand // CAS swap value

	// Guard predicates the whole instruction: lanes whose predicate
	// Guard (negated if GuardNeg) is false skip it. NoGuard disables.
	Guard    int8
	GuardNeg bool

	Target int32 // branch target PC
	Reconv int32 // reconvergence PC for divergent branches
	Param  uint8 // parameter index for OpLdParam
	// Vol marks a volatile load: it bypasses the (non-coherent) L1 and
	// reads L2/DRAM directly, as CUDA `volatile` loads must in pre-Volta
	// spin-wait code. Stores are always write-through so only loads need
	// the flag.
	Vol bool
	Ann Ann
	// NoLint restricts an AnnNoLint suppression to the named finding
	// classes (analysis category or class-group strings such as "race" or
	// "lockorder"). Empty with AnnNoLint set means suppress everything,
	// the pre-class behaviour. The ISA does not interpret the strings;
	// internal/analysis matches them against its finding taxonomy.
	NoLint []string
}

// Guarded reports whether the instruction has a guard predicate.
func (in *Instr) Guarded() bool { return in.Guard != NoGuard }

// HasAnn reports whether annotation bit a is set.
func (in *Instr) HasAnn(a Ann) bool { return in.Ann&a != 0 }

// Suppresses reports whether the instruction's nolint annotation covers
// a finding tagged with the given names (typically the finding's
// category and its class group — a match on either suffices). Without
// AnnNoLint nothing is suppressed; with it and an empty NoLint list
// everything is.
func (in *Instr) Suppresses(names ...string) bool {
	if !in.HasAnn(AnnNoLint) {
		return false
	}
	if len(in.NoLint) == 0 {
		return true
	}
	for _, c := range in.NoLint {
		for _, n := range names {
			if c == n {
				return true
			}
		}
	}
	return false
}

// WritesReg reports whether the instruction writes Dst.
func (in *Instr) WritesReg() bool {
	switch in.Op {
	case OpMov, OpAdd, OpSub, OpMul, OpDiv, OpRem, OpMin, OpMax,
		OpAnd, OpOr, OpXor, OpShl, OpShr, OpSelp, OpLd,
		OpAtomCAS, OpAtomExch, OpAtomAdd, OpAtomMax, OpLdParam:
		return true
	}
	return false
}

// Program is an assembled kernel body.
type Program struct {
	Name string
	Code []Instr
	// TrueSIBs lists the PCs Build derived as AnnSIB, for DDOS accounting.
	TrueSIBs []int32
	// Labels maps label name to PC, kept for disassembly/debugging.
	Labels map[string]int32
}

// At returns the instruction at pc.
func (p *Program) At(pc int32) *Instr { return &p.Code[pc] }

// Len returns the number of instructions.
func (p *Program) Len() int32 { return int32(len(p.Code)) }

// Validate checks structural invariants: branch targets and reconvergence
// PCs in range, conditional branches carrying reconvergence points, and
// register indices within architectural limits.
func (p *Program) Validate() error {
	n := int32(len(p.Code))
	if n == 0 {
		return fmt.Errorf("isa: program %q is empty", p.Name)
	}
	for pc := int32(0); pc < n; pc++ {
		in := &p.Code[pc]
		if in.Op >= opCount {
			return fmt.Errorf("isa: %q pc=%d: bad opcode %d", p.Name, pc, in.Op)
		}
		if in.Op == OpBra {
			if in.Target < 0 || in.Target >= n {
				return fmt.Errorf("isa: %q pc=%d: branch target %d out of range", p.Name, pc, in.Target)
			}
			if in.Guarded() {
				if in.Reconv == NoReconv {
					return fmt.Errorf("isa: %q pc=%d: conditional branch without reconvergence PC", p.Name, pc)
				}
				if in.Reconv < 0 || in.Reconv > n {
					return fmt.Errorf("isa: %q pc=%d: reconvergence PC %d out of range", p.Name, pc, in.Reconv)
				}
			}
		}
		if in.WritesReg() && int(in.Dst) >= NumRegs {
			return fmt.Errorf("isa: %q pc=%d: register %%r%d out of range", p.Name, pc, in.Dst)
		}
		if in.Op == OpSetp && int(in.PDst) >= NumPreds {
			return fmt.Errorf("isa: %q pc=%d: predicate %%p%d out of range", p.Name, pc, in.PDst)
		}
		if in.Op == OpSelp && int(in.PSrc) >= NumPreds {
			return fmt.Errorf("isa: %q pc=%d: selp source predicate %%p%d out of range", p.Name, pc, in.PSrc)
		}
		if in.Guarded() && (in.Guard < 0 || int(in.Guard) >= NumPreds) {
			return fmt.Errorf("isa: %q pc=%d: guard predicate %%p%d out of range", p.Name, pc, in.Guard)
		}
		for _, o := range [...]Operand{in.A, in.B, in.C, in.D} {
			if o.Kind == OpdReg && int(o.Reg) >= NumRegs {
				return fmt.Errorf("isa: %q pc=%d: source register %%r%d out of range", p.Name, pc, o.Reg)
			}
		}
	}
	return nil
}

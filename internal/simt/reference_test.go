package simt

// The differential test of the row interpreter. refWarp is the
// lane-at-a-time interpreter warp.go had before registers became rows and
// predicates masks: lane-major registers, one bool per predicate and lane,
// every operand decoded from the isa.Instr per lane. It exists only here,
// as the reference the real Warp is compared against, state for state and
// result for result, after every instruction.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"warpsched/internal/isa"
)

type refWarp struct {
	prog     *isa.Program
	cta      *CTA
	idInCTA  int
	sm       int
	gtidBase int32
	params   []uint32

	stack        []StackEntry
	exited       uint32
	valid        uint32
	profiledLane int
	done         bool

	regs  [32][isa.NumRegs]uint32
	preds [32][isa.NumPreds]bool
}

func newRefWarp(prog *isa.Program, cta *CTA, idInCTA, sm int, gtidBase int32, lanes int) *refWarp {
	valid := ^uint32(0)
	if lanes < 32 {
		valid = uint32(1)<<lanes - 1
	}
	return &refWarp{prog: prog, cta: cta, idInCTA: idInCTA, sm: sm, gtidBase: gtidBase, valid: valid,
		stack:        []StackEntry{{PC: 0, Reconv: isa.NoReconv, Mask: valid}},
		profiledLane: bits.TrailingZeros32(valid)}
}

func (w *refWarp) activeMask() uint32 {
	if w.done {
		return 0
	}
	return w.stack[len(w.stack)-1].Mask &^ w.exited
}

func (w *refWarp) popReconverged() {
	for len(w.stack) > 1 {
		top := &w.stack[len(w.stack)-1]
		if top.Mask&^w.exited == 0 || (top.Reconv != isa.NoReconv && top.PC == top.Reconv) {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return
	}
	if w.stack[0].Mask&^w.exited == 0 {
		w.done = true
	}
}

func (w *refWarp) guardMask(in *isa.Instr, mask uint32) uint32 {
	if !in.Guarded() {
		return mask
	}
	var g uint32
	for lane := 0; lane < 32; lane++ {
		if mask&(1<<lane) != 0 && w.preds[lane][in.Guard] != in.GuardNeg {
			g |= 1 << lane
		}
	}
	return g
}

func (w *refWarp) operand(o isa.Operand, lane int, clock int64) uint32 {
	switch o.Kind {
	case isa.OpdReg:
		return w.regs[lane][o.Reg]
	case isa.OpdImm:
		return uint32(o.Imm)
	case isa.OpdSpecial:
		switch o.Spec {
		case isa.SpecTID:
			return uint32(w.idInCTA*32 + lane)
		case isa.SpecNTID:
			return uint32(w.cta.ThreadsPer)
		case isa.SpecCTAID:
			return uint32(w.cta.ID)
		case isa.SpecNCTAID:
			return uint32(w.cta.GridCTAs)
		case isa.SpecLaneID:
			return uint32(lane)
		case isa.SpecWarpID:
			return uint32(w.idInCTA)
		case isa.SpecSMID:
			return uint32(w.sm)
		case isa.SpecGTID:
			return uint32(w.gtidBase + int32(lane))
		case isa.SpecClock:
			return uint32(clock)
		}
	}
	return 0
}

func (w *refWarp) alu(in *isa.Instr, lane int, clock int64) uint32 {
	a := w.operand(in.A, lane, clock)
	switch in.Op {
	case isa.OpMov:
		return a
	case isa.OpLdParam:
		return w.params[in.Param]
	case isa.OpSelp:
		b := w.operand(in.B, lane, clock)
		if w.preds[lane][in.PSrc] {
			return a
		}
		return b
	}
	b := w.operand(in.B, lane, clock)
	sa, sb := int32(a), int32(b)
	switch in.Op {
	case isa.OpAdd:
		return uint32(sa + sb)
	case isa.OpSub:
		return uint32(sa - sb)
	case isa.OpMul:
		return uint32(sa * sb)
	case isa.OpDiv:
		if sb == 0 {
			return 0
		}
		return uint32(sa / sb)
	case isa.OpRem:
		if sb == 0 {
			return 0
		}
		return uint32(sa % sb)
	case isa.OpMin:
		if sa < sb {
			return a
		}
		return b
	case isa.OpMax:
		if sa > sb {
			return a
		}
		return b
	case isa.OpAnd:
		return a & b
	case isa.OpOr:
		return a | b
	case isa.OpXor:
		return a ^ b
	case isa.OpShl:
		return a << (b & 31)
	case isa.OpShr:
		return a >> (b & 31)
	}
	panic("reference alu: bad opcode")
}

func (w *refWarp) execute(clock int64) ExecResult {
	top := &w.stack[len(w.stack)-1]
	pc := top.PC
	in := w.prog.At(pc)
	active := w.activeMask()
	res := ExecResult{Instr: in, PC: pc, EffMask: active}

	if in.Op == isa.OpBra {
		w.execBranch(in, pc, active, &res)
		w.popReconverged()
		return res
	}

	eff := active & w.guardMask(in, active)
	res.EffMask = eff
	switch in.Op {
	case isa.OpNop, isa.OpMembar, isa.OpBar:
	case isa.OpExit:
		w.exited |= eff
	case isa.OpSetp:
		if w.valid&^w.exited&(1<<w.profiledLane) == 0 {
			w.profiledLane = bits.TrailingZeros32(w.valid &^ w.exited)
		}
		for lane := 0; lane < 32; lane++ {
			if eff&(1<<lane) == 0 {
				continue
			}
			a, b := w.operand(in.A, lane, clock), w.operand(in.B, lane, clock)
			w.preds[lane][in.PDst] = in.Cmp.Eval(a, b)
			if lane == w.profiledLane {
				res.IsSetp, res.SetpLane, res.SetpV1, res.SetpV2 = true, lane, a, b
			}
		}
	case isa.OpLd, isa.OpSt, isa.OpAtomCAS, isa.OpAtomExch, isa.OpAtomAdd, isa.OpAtomMax:
		for lane := 0; lane < 32; lane++ {
			if eff&(1<<lane) == 0 {
				continue
			}
			acc := MemAccess{Lane: lane, GTID: w.gtidBase + int32(lane),
				Addr: w.operand(in.A, lane, clock) + w.operand(in.B, lane, clock)}
			switch in.Op {
			case isa.OpSt, isa.OpAtomExch, isa.OpAtomAdd, isa.OpAtomMax:
				acc.V1 = w.operand(in.C, lane, clock)
			case isa.OpAtomCAS:
				acc.V1, acc.V2 = w.operand(in.C, lane, clock), w.operand(in.D, lane, clock)
			}
			res.Mem = append(res.Mem, acc)
		}
	default:
		for lane := 0; lane < 32; lane++ {
			if eff&(1<<lane) != 0 {
				w.regs[lane][in.Dst] = w.alu(in, lane, clock)
			}
		}
	}
	top.PC = pc + 1
	w.popReconverged()
	return res
}

func (w *refWarp) execBranch(in *isa.Instr, pc int32, active uint32, res *ExecResult) {
	res.IsBranch = true
	top := &w.stack[len(w.stack)-1]
	if !in.Guarded() {
		res.Taken = active
		top.PC = in.Target
		res.BackwardTaken = in.Target <= pc && active != 0
		if res.BackwardTaken {
			w.profiledLane = bits.TrailingZeros32(active)
		}
		return
	}
	taken := active & w.guardMask(in, active)
	notTaken := active &^ taken
	res.Taken, res.NotTaken = taken, notTaken
	res.BackwardTaken = in.Target <= pc && taken != 0
	if res.BackwardTaken {
		w.profiledLane = bits.TrailingZeros32(taken)
	}
	switch {
	case taken == 0:
		top.PC = pc + 1
	case notTaken == 0:
		top.PC = in.Target
	default:
		top.PC = in.Reconv
		w.stack = append(w.stack,
			StackEntry{PC: pc + 1, Reconv: in.Reconv, Mask: notTaken},
			StackEntry{PC: in.Target, Reconv: in.Reconv, Mask: taken},
		)
	}
}

// pair is a Warp and its reference in the same state.
type pair struct {
	w   *Warp
	ref *refWarp
}

// interesting values for registers and immediates: shift counts around 32,
// zero divisors, the signed extremes.
var interesting = []uint32{0, 1, 2, 3, 31, 32, 33, 63, 64, 0x7fffffff, 0x80000000, 0xffffffff, 0xfffffffe}

func randValue(rng *rand.Rand) uint32 {
	x := rng.Uint64()
	switch x & 3 {
	case 0:
		return interesting[x>>2%uint64(len(interesting))]
	case 1:
		return uint32(x>>2&63) - 8 // small, some negative
	}
	return uint32(x >> 32)
}

// newPair builds both warps over prog — second warp of CTA 3 on SM 5, so no
// special register is zero — with random registers and predicates.
func newPair(rng *rand.Rand, prog *isa.Program, lanes int) pair {
	params := []uint32{rng.Uint32(), 7, rng.Uint32()}
	w := NewWarp(prog, NewCTA(3, 96, 11, 3), 1, 4, 5, 3*96+32, lanes)
	w.Params = params
	ref := newRefWarp(prog, NewCTA(3, 96, 11, 3), 1, 5, 3*96+32, lanes)
	ref.params = params
	for lane := 0; lane < 32; lane++ {
		for r := 0; r < isa.NumRegs; r++ {
			v := randValue(rng)
			w.SetReg(lane, isa.Reg(r), v)
			ref.regs[lane][r] = v
		}
		for p := 0; p < isa.NumPreds; p++ {
			v := rng.Intn(2) == 0
			w.SetPred(lane, isa.Pred(p), v)
			ref.preds[lane][p] = v
		}
	}
	return pair{w, ref}
}

// diverge narrows both warps' active mask to mask by pushing a divergent
// path that reconverges at reconv, where the base entry waits.
func (p pair) diverge(mask uint32, pc, reconv int32) {
	p.w.Stack[0].PC, p.ref.stack[0].PC = reconv, reconv
	e := StackEntry{PC: pc, Reconv: reconv, Mask: mask}
	p.w.Stack = append(p.w.Stack, e)
	p.ref.stack = append(p.ref.stack, e)
}

// step executes one instruction on both sides, gives the destination of a
// load or atomic the same made-up values, and compares everything.
func (p pair) step(t *testing.T, clock int64) {
	t.Helper()
	got, want := p.w.Execute(clock), p.ref.execute(clock)
	if got.Mem == nil {
		got.Mem = []MemAccess{} // nil and empty are the same list
	}
	if want.Mem == nil {
		want.Mem = []MemAccess{}
	}
	got.Mem = append([]MemAccess{}, got.Mem...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExecResult at pc %d (%s):\n got  %+v\n want %+v", want.PC, isa.Disasm(want.Instr), got, want)
	}
	if in := want.Instr; in.Op.IsMem() && in.WritesReg() {
		for _, a := range want.Mem {
			v := a.Addr*2654435761 + a.V1
			p.w.SetReg(a.Lane, in.Dst, v)
			p.ref.regs[a.Lane][in.Dst] = v
		}
	}
	p.compare(t, want.Instr)
}

func (p pair) compare(t *testing.T, in *isa.Instr) {
	t.Helper()
	w, ref := p.w, p.ref
	where := "initially"
	if in != nil {
		where = "after " + isa.Disasm(in)
	}
	if w.Done != ref.done || w.Exited != ref.exited || w.Valid != ref.valid || w.ProfiledLane != ref.profiledLane {
		t.Fatalf("%s: Done/Exited/Valid/ProfiledLane = %v/%08x/%08x/%d, want %v/%08x/%08x/%d", where,
			w.Done, w.Exited, w.Valid, w.ProfiledLane, ref.done, ref.exited, ref.valid, ref.profiledLane)
	}
	if !reflect.DeepEqual(w.Stack, ref.stack) {
		t.Fatalf("%s: stack %+v, want %+v", where, w.Stack, ref.stack)
	}
	if w.ActiveMask() != ref.activeMask() {
		t.Fatalf("%s: active mask %08x, want %08x", where, w.ActiveMask(), ref.activeMask())
	}
	for lane := 0; lane < 32; lane++ {
		for r := 0; r < isa.NumRegs; r++ {
			if got, want := w.Reg(lane, isa.Reg(r)), ref.regs[lane][r]; got != want {
				t.Fatalf("%s: lane %d r%d = %#x, want %#x", where, lane, r, got, want)
			}
		}
		for pr := 0; pr < isa.NumPreds; pr++ {
			if got, want := w.PredVal(lane, isa.Pred(pr)), ref.preds[lane][pr]; got != want {
				t.Fatalf("%s: lane %d p%d = %v, want %v", where, lane, pr, got, want)
			}
		}
	}
}

// The operand kinds an instruction slot can hold. Register 2 is every
// generated instruction's destination, so opdDst is a source aliasing it.
const (
	kindReg = iota
	kindDst
	kindImm
	kindSpecial // + isa.Special
	numKinds    = kindSpecial + int(isa.SpecClock) + 1
)

func makeOperand(rng *rand.Rand, kind int) isa.Operand {
	switch kind {
	case kindReg:
		return isa.R(isa.Reg(3 + rng.Intn(isa.NumRegs-3)))
	case kindDst:
		return isa.R(2)
	case kindImm:
		return isa.I(int32(randValue(rng)))
	}
	return isa.S(isa.Special(kind - kindSpecial))
}

// maskCases are the active-mask shapes a case runs under: which lanes
// exist, which have exited, and the divergent subset executing (0 = all).
var maskCases = []struct {
	name    string
	lanes   int
	exited  func(*rand.Rand) uint32
	diverge func(*rand.Rand) uint32
}{
	{name: "full", lanes: 32},
	{name: "sparse", lanes: 32, diverge: func(r *rand.Rand) uint32 { return r.Uint32() | 1<<uint(r.Intn(32)) }},
	{name: "single", lanes: 32, diverge: func(r *rand.Rand) uint32 { return 1 << uint(r.Intn(32)) }},
	{name: "partial", lanes: 20},
	{name: "partial-sparse", lanes: 20, diverge: func(r *rand.Rand) uint32 { return r.Uint32()&(1<<20-1) | 1<<uint(r.Intn(20)) }},
	{name: "exited", lanes: 32, exited: func(r *rand.Rand) uint32 { return r.Uint32() &^ (1 << uint(r.Intn(32))) }},
	{name: "exited-low", lanes: 32, exited: func(r *rand.Rand) uint32 { return 1<<uint(1+r.Intn(31)) - 1 }},
}

var testedOps = []isa.Op{
	isa.OpNop, isa.OpMembar, isa.OpBar, isa.OpExit, isa.OpBra,
	isa.OpMov, isa.OpLdParam, isa.OpSelp, isa.OpSetp,
	isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem, isa.OpMin, isa.OpMax,
	isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr,
	isa.OpLd, isa.OpSt, isa.OpAtomCAS, isa.OpAtomExch, isa.OpAtomAdd, isa.OpAtomMax,
}

// runCase places in at PC 1 of [nop, in, nop, nop, nop, exit] (so a branch
// has a backward target, PC 0 or itself, and a forward one), runs it with
// every lane active and under two more mask shapes — n rotates through
// them, so neighbouring forms cover them all — and compares after each of
// the next few instructions.
func runCase(t *testing.T, rng *rand.Rand, in isa.Instr, n int) {
	t.Helper()
	if in.Op == isa.OpBra {
		in.Target = []int32{0, 1, 3}[rng.Intn(3)]
		in.Reconv = isa.NoReconv
		if in.Guarded() {
			in.Reconv = 4
		}
	}
	nop := isa.Instr{Op: isa.OpNop, Guard: isa.NoGuard}
	prog := &isa.Program{Name: "case", Code: []isa.Instr{nop, in, nop, nop, nop, {Op: isa.OpExit, Guard: isa.NoGuard}}}
	if err := prog.Validate(); err != nil {
		t.Fatalf("generated %s: %v", isa.Disasm(&in), err)
	}
	rest := len(maskCases) - 1
	for _, mc := range []int{0, 1 + 2*n%rest, 1 + (2*n+1)%rest} {
		mc := &maskCases[mc]
		p := newPair(rng, prog, mc.lanes)
		if mc.exited != nil {
			x := mc.exited(rng)
			p.w.Exited, p.ref.exited = x, x
		}
		if mc.diverge != nil {
			p.diverge(mc.diverge(rng), 0, 5)
		}
		p.compare(t, nil)
		for i := 0; i < 4 && !p.ref.done; i++ {
			p.step(t, int64(1)<<33+int64(rng.Intn(1000))) // %clock truncates to 32 bits
		}
		if t.Failed() {
			t.Fatalf("mask case %q", mc.name)
		}
	}
}

// TestDifferentialEveryForm drives the row interpreter and the reference
// over every opcode × operand kind of A and B (register, the destination
// itself, immediate, each special register) × guard (none, positive,
// negated) × active-mask shape.
func TestDifferentialEveryForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	guards := []struct {
		guard int8
		neg   bool
	}{{isa.NoGuard, false}, {1, false}, {1, true}}
	cases := 0
	for _, op := range testedOps {
		kinds, reps := numKinds, 1
		if op == isa.OpNop || op == isa.OpMembar || op == isa.OpBar || op == isa.OpExit || op == isa.OpBra || op == isa.OpLdParam {
			kinds, reps = 1, 24 // no operands to vary: vary targets, guards and masks
		}
		for ka := 0; ka < kinds*reps; ka++ {
			for kb := 0; kb < kinds; kb++ {
				for _, g := range guards {
					in := isa.Instr{Op: op, Dst: 2, PDst: isa.Pred(rng.Intn(isa.NumPreds)), PSrc: isa.Pred(rng.Intn(isa.NumPreds)),
						Cmp: isa.Cmp(rng.Intn(6)), Param: uint8(rng.Intn(3)), Guard: g.guard, GuardNeg: g.neg,
						A: makeOperand(rng, ka%kinds), B: makeOperand(rng, kb),
						C: makeOperand(rng, rng.Intn(numKinds)), D: makeOperand(rng, rng.Intn(numKinds))}
					if op == isa.OpSetp && rng.Intn(2) == 0 {
						in.PDst = 1 // a setp overwriting its own guard
					}
					runCase(t, rng, in, cases)
					cases++
				}
			}
		}
	}
	t.Logf("%d instruction forms, each under 3 of %d mask shapes", cases, len(maskCases))
}

// TestDifferentialEdgeValues pins the arithmetic corners explicitly:
// division and remainder by zero and of MinInt32 by -1, shift counts of 32
// and beyond, and every comparison at the signed boundaries.
func TestDifferentialEdgeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	edge := []int32{0, 1, -1, 31, 32, 33, 63, 64, math.MaxInt32, math.MinInt32}
	for _, op := range []isa.Op{isa.OpDiv, isa.OpRem, isa.OpShl, isa.OpShr, isa.OpMin, isa.OpMax, isa.OpSetp} {
		for _, a := range edge {
			for _, b := range edge {
				for cmp := isa.EQ; cmp <= isa.GE; cmp++ {
					in := isa.Instr{Op: op, Dst: 2, PDst: 3, Cmp: cmp, Guard: isa.NoGuard, A: isa.I(a), B: isa.I(b)}
					runCase(t, rng, in, int(cmp))
					// The same values arriving in registers, b in the destination.
					in.A, in.B = isa.R(7), isa.R(2)
					prog := &isa.Program{Name: "edge", Code: []isa.Instr{in, {Op: isa.OpExit, Guard: isa.NoGuard}}}
					p := newPair(rng, prog, 32)
					for lane := 0; lane < 32; lane++ {
						p.w.SetReg(lane, 7, uint32(a))
						p.w.SetReg(lane, 2, uint32(b))
						p.ref.regs[lane][7], p.ref.regs[lane][2] = uint32(a), uint32(b)
					}
					p.step(t, 0)
					if op != isa.OpSetp {
						break // cmp only matters to setp
					}
				}
			}
		}
	}
}

// TestDifferentialPrograms runs random structured programs — nested
// if/else on data-dependent predicates, a counted loop whose trip count
// differs per lane, early exits inside divergent paths — to completion on
// both sides, comparing after every instruction: the reconvergence stack,
// the profiled lane re-latched at backward branches, lanes retiring while
// others run on.
func TestDifferentialPrograms(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := isa.NewBuilder(fmt.Sprintf("rand%d", seed))
		var body func(depth int)
		stmt := func() {
			dst := isa.Reg(2 + rng.Intn(6))
			ops := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem, isa.OpMin, isa.OpMax,
				isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr}
			src := func() isa.Operand {
				return makeOperand(rng, []int{kindReg, kindImm, kindSpecial + rng.Intn(9)}[rng.Intn(3)])
			}
			switch rng.Intn(6) {
			case 0:
				b.Mov(dst, src())
			case 1:
				b.Selp(dst, isa.Pred(rng.Intn(4)), src(), src())
			case 2:
				b.Ld(dst, src(), src())
			case 3:
				b.AtomCAS(dst, src(), src(), src(), src())
			default:
				b.ALU(ops[rng.Intn(len(ops))], dst, isa.R(isa.Reg(2+rng.Intn(6))), src())
			}
		}
		body = func(depth int) {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				p := isa.Pred(rng.Intn(4))
				switch k := rng.Intn(8); {
				case k < 4 || depth >= 3:
					stmt()
				case k == 4:
					b.Setp(isa.Cmp(rng.Intn(6)), p, isa.R(isa.Reg(2+rng.Intn(6))), isa.I(int32(rng.Intn(16))))
					b.If(p, rng.Intn(2) == 0, func() { body(depth + 1) })
				case k == 5:
					b.Setp(isa.Cmp(rng.Intn(6)), p, isa.S(isa.SpecLaneID), isa.I(int32(rng.Intn(32))))
					b.IfElse(p, rng.Intn(2) == 0, func() { body(depth + 1) }, func() { body(depth + 1) })
				case k == 6:
					// for (r60 = laneid & 3; r60 > 0; r60--)
					b.And(60, isa.S(isa.SpecLaneID), isa.I(3))
					b.While(4, false,
						func() { b.Setp(isa.GT, 4, isa.R(60), isa.I(0)) },
						func() { stmt(); b.Sub(60, isa.R(60), isa.I(1)) })
				default:
					b.Setp(isa.EQ, p, isa.S(isa.SpecLaneID), isa.I(int32(rng.Intn(32))))
					b.If(p, false, func() { b.Exit() })
				}
			}
		}
		body(0)
		b.Exit()
		prog := b.MustBuild()
		p := newPair(rng, prog, []int{32, 32, 20, 1}[rng.Intn(4)])
		for lane := 0; lane < 32; lane++ { // small values so branches go both ways
			for r := isa.Reg(2); r < 8; r++ {
				v := uint32(rng.Intn(16))
				p.w.SetReg(lane, r, v)
				p.ref.regs[lane][r] = v
			}
		}
		steps := 0
		for ; !p.ref.done && steps < 5000; steps++ {
			p.step(t, int64(steps))
		}
		if !p.ref.done || !p.w.Done {
			t.Fatalf("seed %d: not finished after %d steps", seed, steps)
		}
	}
}

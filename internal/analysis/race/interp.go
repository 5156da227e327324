package race

import (
	"warpsched/internal/analysis"
	"warpsched/internal/isa"
)

// regs is one abstract register file: one value per register the
// program names, in register order (interp.slot maps a register to its
// index). A register the program never names would hold 0 throughout,
// so it is not kept.
type regs []AbsVal

// setpRel records what a setp compares, evaluated in the abstract state
// at the setp itself. The conflict prover turns these into linear
// constraints on the accesses the predicate guards.
type setpRel struct {
	a, b AbsVal
	cmp  isa.Cmp
}

// interp is the whole-program abstract interpretation state.
type interp struct {
	p   *isa.Program
	g   *analysis.CFG
	t   *symtab
	geo geometry

	varyR uint64
	varyP uint8
	// divergent marks nodes inside the divergent region of some branch
	// with a CTA-varying guard: definitions there are thread-varying
	// regardless of their operands.
	divergent []bool
	// onBarFreeCycle marks PCs that can re-execute without an intervening
	// bar.sync — their uniform definitions are not interval-stable.
	onBarFreeCycle []bool

	// named lists the registers the program names, ascending; slot maps
	// each of them to its index in a regs file.
	named []isa.Reg
	slot  [isa.NumRegs]int8

	in      []regs
	reached []bool

	setps []setpRel // indexed by PC; cmp is valid only for setp PCs
}

func newInterp(p *isa.Program, g *analysis.CFG, geo geometry) *interp {
	it := &interp{
		p: p, g: g, t: newSymtab(), geo: geo,
		reached: make([]bool, g.N+1),
		setps:   make([]setpRel, g.N),
	}
	var named uint64
	for pc := range p.Code {
		in := &p.Code[pc]
		if in.WritesReg() {
			named |= 1 << uint(in.Dst)
		}
		for _, o := range [...]isa.Operand{in.A, in.B, in.C, in.D} {
			if o.Kind == isa.OpdReg {
				named |= 1 << uint(o.Reg)
			}
		}
	}
	for r := range it.slot {
		it.slot[r] = -1
		if named&(1<<uint(r)) != 0 {
			it.slot[r] = int8(len(it.named))
			it.named = append(it.named, isa.Reg(r))
		}
	}
	it.in = it.files(int(g.N) + 1)
	it.varyR, it.varyP, it.divergent = analysis.VaryingSets(g, false)
	it.onBarFreeCycle = barFreeCycles(p, g)
	return it
}

// files returns n register files carved from one zeroed backing array.
func (it *interp) files(n int) []regs {
	k := len(it.named)
	buf := make([]AbsVal, n*k)
	out := make([]regs, n)
	for i := range out {
		out[i] = buf[i*k : (i+1)*k : (i+1)*k]
	}
	return out
}

// barFreeCycles marks nodes lying on a CFG cycle that avoids every
// bar.sync: such a node can execute twice inside one barrier interval.
func barFreeCycles(p *isa.Program, g *analysis.CFG) []bool {
	out := make([]bool, g.N+1)
	isBar := barAt(p, g)
	for pc := int32(0); pc < g.N; pc++ {
		out[pc] = !isBar(pc) && g.Walk(g.Succ[pc], false, isBar)[pc]
	}
	return out
}

// freshKind classifies a symbol minted at pc from the given operand
// values: varying under divergent control or varying inputs, otherwise
// uniform, and interval-stable when the definition cannot repeat within
// a barrier interval.
func (it *interp) freshKind(pc int32, ops ...AbsVal) symKind {
	in := it.p.At(pc)
	if it.divergent[pc] || (in.Guarded() && it.varyP&(1<<uint8(in.Guard)) != 0) {
		return symVarying
	}
	for _, o := range ops {
		if !o.uniform(it.t) {
			return symVarying
		}
	}
	if it.onBarFreeCycle[pc] {
		return symUniform
	}
	return symStable
}

// fresh mints (or re-interns) the canonical definition symbol for pc.
func (it *interp) fresh(pc int32, reg isa.Reg, kind symKind, lo, hi int64) AbsVal {
	return symV(it.t.intern(symKey{pc: pc, reg: reg, param: -1}, kind, lo, hi))
}

// widen replaces an unmergeable join with the canonical widening symbol
// of (pc, reg).
func (it *interp) widen(pc int32, reg isa.Reg, a, b AbsVal) AbsVal {
	kind := symVarying
	if a.uniform(it.t) && b.uniform(it.t) && !it.divergent[pc] {
		if it.onBarFreeCycle[pc] {
			kind = symUniform
		} else {
			kind = symStable
		}
	}
	alo, ahi := a.bounds(it.t, it.geo)
	blo, bhi := b.bounds(it.t, it.geo)
	return symV(it.t.intern(symKey{pc: pc, reg: reg, widen: true, param: -1},
		kind, min(alo, blo), max(ahi, bhi)))
}

// joinVal merges two abstract values flowing into pc for register r.
// Equal shapes merge by folding the constant difference into a stride
// (the shape of a loop induction variable advancing by a uniform step);
// different shapes widen to the canonical symbol of (pc, r), whose
// interned identity makes the fixpoint terminate.
func (it *interp) joinVal(pc int32, r isa.Reg, a, b AbsVal) AbsVal {
	if a.equal(b) {
		return a
	}
	if a.Top || b.Top {
		return top()
	}
	if a.sameShape(b) {
		if a.Stride == 0 && b.Stride == 0 && b.C < a.C {
			// A decreasing constant sequence (halving loop counters): the
			// stride shape is unbounded above and would lose the upper
			// bound, so widen to an interval symbol instead.
			return it.widen(pc, r, a, b)
		}
		c := min(a.C, b.C)
		st := gcd64(gcd64(a.Stride, b.Stride), a.C-b.C)
		out := a
		out.C, out.Stride = c, st
		return out
	}
	return it.widen(pc, r, a, b)
}

// evalOperand evaluates a source operand in state s at pc.
func (it *interp) evalOperand(pc int32, s regs, o isa.Operand) AbsVal {
	switch o.Kind {
	case isa.OpdImm:
		return constV(int64(o.Imm))
	case isa.OpdReg:
		return s[it.slot[o.Reg]]
	case isa.OpdSpecial:
		switch o.Spec {
		case isa.SpecTID:
			return AbsVal{Lane: 1, Warp: 32}
		case isa.SpecNTID:
			return constV(it.geo.threads)
		case isa.SpecCTAID:
			return AbsVal{CTA: 1}
		case isa.SpecNCTAID:
			return constV(it.geo.ctas)
		case isa.SpecLaneID:
			return AbsVal{Lane: 1}
		case isa.SpecWarpID:
			return AbsVal{Warp: 1}
		case isa.SpecGTID:
			return AbsVal{Lane: 1, Warp: 32, CTA: it.geo.threads}
		case isa.SpecSMID:
			// Keyed past the register space so special-operand symbols
			// never collide with a definition symbol at the same PC.
			return it.fresh(pc, isa.Reg(isa.NumRegs)+isa.Reg(o.Spec), symStable, 0, posInf)
		default: // SpecClock and anything future: per-thread noise
			return it.fresh(pc, isa.Reg(isa.NumRegs)+isa.Reg(o.Spec), symVarying, negInf, posInf)
		}
	}
	return top()
}

// shrConst models a logical right shift by k of v, exploiting exact
// divisibility (including the gtid>>5 global-warp-index idiom, where the
// lane component vanishes under the shift).
func (it *interp) shrConst(pc int32, dst isa.Reg, v AbsVal, k int64) AbsVal {
	if k <= 0 || k >= 32 {
		if k == 0 {
			return v
		}
		return constV(0)
	}
	// shr shifts the unsigned register, which is the form itself only
	// while the form stays in [0, 2^32).
	lo, vhi := v.bounds(it.t, it.geo)
	exact := v.inRange(it.t, it.geo, 0, wrap)
	if v.IsConst() && exact {
		return constV(v.C >> uint(k))
	}
	m := int64(1) << uint(k)
	divisible := func(x int64) bool { return x%m == 0 }
	allDiv := divisible(v.C) && divisible(v.Warp) && divisible(v.CTA) && divisible(v.Stride)
	for _, tm := range v.Terms {
		allDiv = allDiv && divisible(tm.Coef)
	}
	if exact && allDiv {
		switch {
		case v.Lane == 0:
			return v.mulConstExactDiv(m)
		case v.Lane == 1 && k == 5:
			// (32·q + lane) >> 5 == q for lane in [0,32).
			out := v
			out.Lane = 0
			return out.mulConstExactDiv(m)
		}
	}
	// Fallback: logical shift keeps the result non-negative.
	hi := posInf
	if vhi != posInf && lo >= 0 {
		hi = vhi >> uint(k)
	}
	return it.fresh(pc, dst, it.freshKind(pc, v), 0, hi)
}

// mulConstExactDiv divides every component by m (callers have verified
// divisibility of all non-lane components).
func (v AbsVal) mulConstExactDiv(m int64) AbsVal {
	out := v
	out.C /= m
	out.Warp /= m
	out.CTA /= m
	out.Stride /= m
	out.Terms = make([]Term, len(v.Terms))
	for i, tm := range v.Terms {
		out.Terms[i] = Term{Sym: tm.Sym, Coef: tm.Coef / m}
	}
	return out
}

// transfer computes the out-state of pc in s, a copy of its in-state.
func (it *interp) transfer(pc int32, s regs) {
	in := it.p.At(pc)
	var dst *AbsVal
	if in.WritesReg() {
		dst = &s[it.slot[in.Dst]]
	}
	set := func(v AbsVal) {
		if in.Guarded() {
			// Lanes failing the guard keep the old value.
			v = it.joinVal(pc, in.Dst, *dst, v)
		}
		*dst = v
	}
	a := func() AbsVal { return it.evalOperand(pc, s, in.A) }
	b := func() AbsVal { return it.evalOperand(pc, s, in.B) }

	switch in.Op {
	case isa.OpMov:
		set(a())
	case isa.OpLdParam:
		set(symV(it.t.paramSym(in.Param)))
	case isa.OpAdd:
		set(a().add(b()))
	case isa.OpSub:
		set(a().sub(b()))
	case isa.OpMul:
		av, bv := a(), b()
		switch {
		case av.IsConst():
			set(bv.mulConst(av.C))
		case bv.IsConst():
			set(av.mulConst(bv.C))
		default:
			set(it.fresh(pc, in.Dst, it.freshKind(pc, av, bv), negInf, posInf))
		}
	case isa.OpShl:
		av, bv := a(), b()
		if bv.IsConst() && bv.C >= 0 && bv.C < 32 {
			set(av.mulConst(int64(1) << uint(bv.C)))
		} else {
			set(it.fresh(pc, in.Dst, it.freshKind(pc, av, bv), negInf, posInf))
		}
	case isa.OpShr:
		av, bv := a(), b()
		if bv.IsConst() {
			set(it.shrConst(pc, in.Dst, av, bv.C))
		} else {
			set(it.fresh(pc, in.Dst, it.freshKind(pc, av, bv), 0, posInf))
		}
	case isa.OpRem:
		av, bv := a(), b()
		if bv.IsConst() && bv.C > 0 {
			lo, _ := av.bounds(it.t, it.geo)
			l := int64(0)
			if lo < 0 || !av.fitsInt32(it.t, it.geo) {
				l = -(bv.C - 1)
			}
			set(it.fresh(pc, in.Dst, it.freshKind(pc, av), l, bv.C-1))
		} else {
			set(it.fresh(pc, in.Dst, it.freshKind(pc, av, bv), negInf, posInf))
		}
	case isa.OpDiv:
		av, bv := a(), b()
		lo, hi := av.bounds(it.t, it.geo)
		if bv.IsConst() && bv.C > 0 && lo >= 0 && av.fitsInt32(it.t, it.geo) {
			h := hi
			if h != posInf {
				h /= bv.C
			}
			set(it.fresh(pc, in.Dst, it.freshKind(pc, av), 0, h))
		} else {
			set(it.fresh(pc, in.Dst, it.freshKind(pc, av, bv), negInf, posInf))
		}
	case isa.OpAnd:
		av, bv := a(), b()
		if c, v := bv, av; c.IsConst() || av.IsConst() {
			if av.IsConst() {
				c, v = av, bv
			}
			if c.C >= 0 {
				if lane, ok := laneExtract(v, c.C); ok {
					set(lane)
					break
				}
				set(it.fresh(pc, in.Dst, it.freshKind(pc, av, bv), 0, c.C))
				break
			}
		}
		set(it.fresh(pc, in.Dst, it.freshKind(pc, av, bv), negInf, posInf))
	case isa.OpOr, isa.OpXor:
		av, bv := a(), b()
		alo, _ := av.bounds(it.t, it.geo)
		blo, _ := bv.bounds(it.t, it.geo)
		lo := int64(negInf)
		if alo >= 0 && blo >= 0 {
			lo = 0
		}
		set(it.fresh(pc, in.Dst, it.freshKind(pc, av, bv), lo, posInf))
	case isa.OpMin, isa.OpMax:
		av, bv := a(), b()
		alo, ahi := av.bounds(it.t, it.geo)
		blo, bhi := bv.bounds(it.t, it.geo)
		lo, hi := int64(negInf), int64(posInf)
		switch {
		case !av.fitsInt32(it.t, it.geo) || !bv.fitsInt32(it.t, it.geo):
		case in.Op == isa.OpMin:
			lo, hi = min(alo, blo), min(ahi, bhi)
		default:
			lo, hi = max(alo, blo), max(ahi, bhi)
		}
		set(it.fresh(pc, in.Dst, it.freshKind(pc, av, bv), lo, hi))
	case isa.OpSelp:
		av, bv := a(), b()
		if it.varyP&(1<<in.PSrc) != 0 {
			alo, ahi := av.bounds(it.t, it.geo)
			blo, bhi := bv.bounds(it.t, it.geo)
			*dst = it.fresh(pc, in.Dst, symVarying, min(alo, blo), max(ahi, bhi))
		} else {
			set(it.joinVal(pc, in.Dst, av, bv))
		}
	case isa.OpSetp:
		it.setps[pc] = setpRel{a: a(), b: b(), cmp: in.Cmp}
	case isa.OpLd, isa.OpAtomCAS, isa.OpAtomExch, isa.OpAtomAdd, isa.OpAtomMax:
		// Loaded/returned values are arbitrary other-thread data.
		set(it.fresh(pc, in.Dst, symVarying, negInf, posInf))
	}
}

// laneExtract recognizes v & mask as an exact lane extraction: mask 31
// applied to a value of shape 32·q + lane.
func laneExtract(v AbsVal, mask int64) (AbsVal, bool) {
	if mask != 31 || v.Top || v.Lane != 1 {
		return AbsVal{}, false
	}
	div := func(x int64) bool { return x%32 == 0 }
	if !div(v.C) || !div(v.Warp) || !div(v.CTA) || !div(v.Stride) {
		return AbsVal{}, false
	}
	for _, tm := range v.Terms {
		if !div(tm.Coef) {
			return AbsVal{}, false
		}
	}
	return AbsVal{Lane: 1}, true
}

// run iterates the transfer functions to a fixpoint, then snapshots the
// setp relations under the final states.
//
// In-states are recomputed each sweep as the join of the current
// predecessor out-states rather than accumulated against their own
// history: the first sweeps of a loop see transient constants (the loop
// head evaluated before its back edge), and folding those into the
// in-state permanently would widen every downstream node to a node-local
// symbol, destroying the affine address structure. Recomputing from outs
// lets transients wash out once the back edge stabilizes; termination
// still holds because widening symbols are interned per (pc, reg) with
// monotone bounds, so repeated joins reproduce identical values. A sweep
// cap backstops the argument: on overrun every state is forced to top,
// which is sound (everything is reported).
func (it *interp) run() {
	n := it.g.N
	it.reached[0] = true
	out := it.files(int(n))
	o := it.files(1)[0]
	evaluated := make([]bool, n)
	const maxSweeps = 500
	converged := false
	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		for pc := int32(0); pc < n; pc++ {
			if !it.reached[pc] {
				continue
			}
			iv := it.in[pc]
			first := pc != 0
			if !first {
				clear(iv) // entry's in-state is all-zero registers
			}
			for _, q := range it.g.Pred[pc] {
				if q >= n || !evaluated[q] {
					continue
				}
				if first {
					copy(iv, out[q])
					first = false
					continue
				}
				for i, r := range it.named {
					iv[i] = it.joinVal(pc, r, iv[i], out[q][i])
				}
			}
			if first && pc != 0 {
				continue // no predecessor evaluated yet
			}
			copy(o, iv)
			it.transfer(pc, o)
			if !evaluated[pc] || !regsEqual(o, out[pc]) {
				evaluated[pc] = true
				copy(out[pc], o)
				changed = true
			}
			for _, s := range it.g.Succ[pc] {
				if s < n && !it.reached[s] {
					it.reached[s] = true
					changed = true
				}
			}
		}
		if !changed {
			converged = true
			break
		}
	}
	if !converged {
		for pc := int32(0); pc < n; pc++ {
			for r := range it.in[pc] {
				it.in[pc][r] = top()
			}
		}
	}
	// Final snapshot of setp relations under the fixpoint in-states.
	for pc := int32(0); pc < n; pc++ {
		if it.reached[pc] && it.p.At(pc).Op == isa.OpSetp {
			copy(o, it.in[pc])
			it.transfer(pc, o)
		}
	}
}

func regsEqual(a, b regs) bool {
	for r := range a {
		if !a[r].equal(b[r]) {
			return false
		}
	}
	return true
}

// addr evaluates the effective address A+B of the memory op at pc in its
// fixpoint in-state.
func (it *interp) addr(pc int32) AbsVal {
	s, in := it.in[pc], it.p.At(pc)
	return it.evalOperand(pc, s, in.A).add(it.evalOperand(pc, s, in.B))
}

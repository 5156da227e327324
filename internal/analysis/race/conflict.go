package race

import (
	"cmp"
	"encoding/binary"
	"slices"

	"warpsched/internal/isa"
)

// The conflict prover decides whether two memory accesses, performed by
// two distinct threads, can touch the same word. It reduces the question
// to integer-linear feasibility: the two effective addresses are
// instantiated over per-thread variables (lane, warp, cta of each side)
// and the abstract symbols of their values — shared between the sides
// exactly when the symbol kind licenses it — and the system
//
//	addr₁ − addr₂ = 0  ∧  guard constraints  ∧  geometry bounds
//	∧  thread₁ ≠ thread₂ (case-split into < and >)
//
// is refuted with Fourier–Motzkin elimination over the rationals plus
// integer tightening. Refutation is sound: rational infeasibility (of a
// system whose every integer solution is preserved) implies no two
// threads can collide. Feasibility only means "cannot prove disjoint".

// lin is one linear row: Σ coef·x + c ≥ 0, or = 0 when eq is set. t is
// the Σ part in the domain's term form — Term.Sym holds the prover
// variable, sorted, with no zero coefficient.
type lin struct {
	t  []Term
	c  int64
	eq bool
}

// coefOf returns the coefficient of variable v in t.
func coefOf(t []Term, v int32) int64 {
	for _, tm := range t {
		if tm.Sym == v {
			return tm.Coef
		}
	}
	return 0
}

const coefLimit = int64(1) << 50

// solver runs feasibility queries. It keeps its row and term buffers
// from one query to the next.
type solver struct {
	arena []Term // terms of the rows derived in the current query
	// work holds the live rows; spare, pos and neg are scratch lists of
	// the elimination.
	work, spare, pos, neg []lin
	counts                [][2]int
}

// alloc returns an empty term list with room for n terms.
func (s *solver) alloc(n int) []Term {
	if len(s.arena)+n > cap(s.arena) {
		s.arena = make([]Term, 0, max(2*cap(s.arena), n, 64))
	}
	l := len(s.arena)
	s.arena = s.arena[:l+n]
	return s.arena[l : l : l+n]
}

// combine returns the row a·l + b·m, an equality when l is one.
func (s *solver) combine(l lin, a int64, m lin, b int64) lin {
	return lin{t: appendMerged(s.alloc(len(l.t)+len(m.t)), l.t, a, m.t, b), c: a*l.c + b*m.c, eq: l.eq}
}

// normalize divides the row by the gcd of its coefficients, tightening
// the constant toward feasibility-preservation for integer solutions.
// ok is false past coefLimit; sat is false if the row is unsatisfiable.
func (s *solver) normalize(l *lin) (ok, sat bool) {
	var g int64
	for _, tm := range l.t {
		if tm.Coef > coefLimit || tm.Coef < -coefLimit {
			return false, true
		}
		g = gcd64(g, tm.Coef)
	}
	if len(l.t) == 0 {
		if l.eq {
			return true, l.c == 0
		}
		return true, l.c >= 0
	}
	if g > 1 {
		if l.eq {
			if l.c%g != 0 {
				return true, false // Σ g·aᵢxᵢ = -c has no integer solution
			}
			l.c /= g
		} else {
			// floor division keeps every integer solution.
			c := l.c / g
			if l.c%g != 0 && l.c < 0 {
				c--
			}
			l.c = c
		}
		t := s.alloc(len(l.t)) // l.t may be shared with the caller's row
		for _, tm := range l.t {
			t = append(t, Term{Sym: tm.Sym, Coef: tm.Coef / g})
		}
		l.t = t
	}
	return true, true
}

// push normalizes r and appends it to *dst unless it holds trivially.
// decided reports that r settles the whole system, with verdict the
// answer solve must return: false when r is unsatisfiable, true (give
// up) when a coefficient passes coefLimit.
func (s *solver) push(dst *[]lin, r lin) (verdict, decided bool) {
	ok, sat := s.normalize(&r)
	if !ok || !sat {
		return !ok, true
	}
	if len(r.t) > 0 {
		*dst = append(*dst, r)
	}
	return false, false
}

// solve reports whether the system may have an integer solution: false
// is definitive (no integer solution); true is "could not refute".
// Equalities go by substitution, then inequalities by Fourier–Motzkin.
// Every choice breaks ties toward the lowest variable, so the
// elimination order is a function of the rows.
func (s *solver) solve(rows []lin) bool {
	s.arena = s.arena[:0]
	s.work = s.work[:0]
	for _, r := range rows {
		if verdict, decided := s.push(&s.work, r); decided {
			return verdict
		}
	}

	// Substitute out equalities first.
	for {
		ei := slices.IndexFunc(s.work, func(r lin) bool { return r.eq })
		if ei < 0 {
			break
		}
		e := s.work[ei]
		s.work = slices.Delete(s.work, ei, ei+1)
		// Pivot on the variable with the smallest |coef|.
		p := e.t[0]
		for _, tm := range e.t[1:] {
			if abs64(tm.Coef) < abs64(p.Coef) {
				p = tm
			}
		}
		next := s.work[:0]
		for _, r := range s.work {
			// r' = |a|·r − sign(a)·b·e drops the pivot and keeps r's sense.
			if b := coefOf(r.t, p.Sym); b != 0 {
				if a := p.Coef; a > 0 {
					r = s.combine(r, a, e, -b)
				} else {
					r = s.combine(r, -a, e, b)
				}
			}
			if verdict, decided := s.push(&next, r); decided {
				return verdict
			}
		}
		s.work = next
	}

	// Fourier–Motzkin on the remaining inequalities.
	for len(s.work) > 0 {
		// Eliminate the variable minimizing pos·neg fill-in.
		counts := s.counts[:0]
		for _, r := range s.work {
			for _, tm := range r.t {
				for int(tm.Sym) >= len(counts) {
					counts = append(counts, [2]int{})
				}
				if tm.Coef > 0 {
					counts[tm.Sym][0]++
				} else {
					counts[tm.Sym][1]++
				}
			}
		}
		s.counts = counts
		best, bestCost := int32(-1), 1<<30
		for v, c := range counts {
			if cost := c[0] * c[1]; c != [2]int{} && cost < bestCost {
				best, bestCost = int32(v), cost
			}
		}
		pos, neg, rest := s.pos[:0], s.neg[:0], s.spare[:0]
		for _, r := range s.work {
			switch v := coefOf(r.t, best); {
			case v > 0:
				pos = append(pos, r)
			case v < 0:
				neg = append(neg, r)
			default:
				rest = append(rest, r)
			}
		}
		s.pos, s.neg, s.spare = pos, neg, rest
		for _, p := range pos {
			for _, n := range neg {
				nr := s.combine(p, -coefOf(n.t, best), n, coefOf(p.t, best))
				if verdict, decided := s.push(&rest, nr); decided {
					return verdict
				}
			}
		}
		if len(rest) > 600 {
			return true // blowup guard: give up
		}
		s.spare, s.work = s.work, rest
	}
	return true
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// Variable ids of the geometry, allocated first by newInst. Symbol
// instances follow.
const (
	varLane1 = iota
	varWarp1
	varCTA1
	varLane2
	varWarp2
	varCTA2
)

// prover instantiates accesses into linear systems and decides them.
type prover struct {
	t   *symtab
	geo geometry
	in  inst   // the one instantiation being built, reused
	s   solver // its solver, reused
	// insts counts newInst calls; tests read it to pin how the pair
	// stage's work grows.
	insts int
	// forms interns address forms (classify); pairs keeps what is known
	// of each form pair.
	forms map[string]int32
	pairs map[pairKey]*pairFacts
}

func newProver(t *symtab, geo geometry) *prover {
	return &prover{t: t, geo: geo, forms: map[string]int32{}, pairs: map[pairKey]*pairFacts{}}
}

// inst is one pair-instantiation context: variable allocation for the
// symbols of both sides plus the accumulated bound rows.
type inst struct {
	pr      *prover
	sameCTA bool
	vars    map[[2]int32]int32 // (sym, side) -> var; side 0 means shared
	rows    []lin
	// lo and hi are each variable's declared range, indexed by variable.
	lo, hi []int64
	arena  []Term // the rows' terms
	sx, sy []Term // diff's scratch rows
}

// terms returns ts copied into the instantiation's term storage.
func (in *inst) terms(ts ...Term) []Term {
	if len(in.arena)+len(ts) > cap(in.arena) {
		in.arena = make([]Term, 0, max(2*cap(in.arena), len(ts), 64))
	}
	l := len(in.arena)
	in.arena = append(in.arena, ts...)
	return in.arena[l : l+len(ts) : l+len(ts)]
}

// bound allocates the next variable with range [lo, hi] and emits a
// bound row for each finite side.
func (in *inst) bound(lo, hi int64) int32 {
	v := int32(len(in.lo))
	in.lo, in.hi = append(in.lo, lo), append(in.hi, hi)
	if lo != negInf {
		in.rows = append(in.rows, lin{t: in.terms(Term{Sym: v, Coef: 1}), c: -lo}) // v ≥ lo
	}
	if hi != posInf {
		in.rows = append(in.rows, lin{t: in.terms(Term{Sym: v, Coef: -1}), c: hi}) // v ≤ hi
	}
	return v
}

// newInst starts a fresh instantiation in the prover's reused one.
func (pr *prover) newInst(sameCTA bool) *inst {
	pr.insts++
	in := &pr.in
	if in.vars == nil {
		in.vars = map[[2]int32]int32{}
	}
	clear(in.vars)
	in.pr, in.sameCTA = pr, sameCTA
	in.rows, in.lo, in.hi, in.arena = in.rows[:0], in.lo[:0], in.hi[:0], in.arena[:0]
	// Geometry bounds for both sides, allocated in variable-id order.
	g := pr.geo
	for side := 0; side < 2; side++ {
		lane, warp := in.bound(0, 31), in.bound(0, g.warps-1)
		in.bound(0, g.ctas-1)
		// Partial last warp: tid = 32·warp + lane < threads.
		in.rows = append(in.rows, lin{t: in.terms(Term{Sym: lane, Coef: -1}, Term{Sym: warp, Coef: -32}), c: g.threads - 1})
	}
	if sameCTA {
		in.rows = append(in.rows, lin{t: in.terms(Term{Sym: varCTA1, Coef: 1}, Term{Sym: varCTA2, Coef: -1}), eq: true})
	}
	return in
}

// sideVars returns the geometry variables of side 1 or 2.
func sideVars(side int) (lane, warp, cta int32) {
	if side == 1 {
		return varLane1, varWarp1, varCTA1
	}
	return varLane2, varWarp2, varCTA2
}

// symVar returns the variable for a symbol on the given side (1 or 2),
// sharing it across sides when the symbol kind licenses it, and emits
// the symbol's bound rows on first allocation.
func (in *inst) symVar(sym int32, side int) int32 {
	info := in.pr.t.info(sym)
	key := [2]int32{sym, int32(side)}
	if info.kind == symParam || (info.kind == symStable && in.sameCTA) {
		key[1] = 0
	}
	if v, ok := in.vars[key]; ok {
		return v
	}
	v := in.bound(info.lo, info.hi)
	in.vars[key] = v
	return v
}

// row appends value v instantiated for side (1 or 2) to buf, sorted,
// excluding the stride component (handled by the caller).
func (in *inst) row(buf []Term, v AbsVal, side int) []Term {
	lane, warp, cta := sideVars(side)
	for _, tm := range [3]Term{{Sym: lane, Coef: v.Lane}, {Sym: warp, Coef: v.Warp}, {Sym: cta, Coef: v.CTA}} {
		if tm.Coef != 0 {
			buf = append(buf, tm)
		}
	}
	for _, tm := range v.Terms {
		buf = append(buf, Term{Sym: in.symVar(tm.Sym, side), Coef: tm.Coef})
	}
	slices.SortFunc(buf, func(a, b Term) int { return cmp.Compare(a.Sym, b.Sym) })
	return buf
}

// diff instantiates x on side sx minus y on side sy, x first.
func (in *inst) diff(x AbsVal, sx int, y AbsVal, sy int) lin {
	in.sx = in.row(in.sx[:0], x, sx)
	in.sy = in.row(in.sy[:0], y, sy)
	l := len(in.arena)
	in.arena = appendMerged(in.arena, in.sx, 1, in.sy, -1)
	return lin{t: in.arena[l:len(in.arena):len(in.arena)], c: x.C - y.C}
}

// addGuard emits the linear row for "a cmp b" on the given side;
// guardsFor keeps only guards that have one.
func (in *inst) addGuard(gc guardCon, side int) {
	var r lin
	if gc.cmp == isa.LT || gc.cmp == isa.LE { // b - a (- 1 ≥ 0 | ≥ 0)
		r = in.diff(gc.b, side, gc.a, side)
	} else { // EQ, GT, GE: a - b (= 0 | - 1 ≥ 0 | ≥ 0)
		r = in.diff(gc.a, side, gc.b, side)
	}
	if gc.cmp == isa.LT || gc.cmp == isa.GT {
		r.c--
	}
	r.eq = gc.cmp == isa.EQ
	in.rows = append(in.rows, r)
}

// representable reports whether addGuard has a row for the guard:
// neither side top nor strided, and a comparison other than NE.
func (gc guardCon) representable() bool {
	return !gc.a.Top && !gc.b.Top && gc.a.Stride == 0 && gc.b.Stride == 0 && gc.cmp != isa.NE && gc.cmp <= isa.GE
}

// intervalOf evaluates the row's range under the variables' declared
// ranges (simple interval arithmetic).
func (in *inst) intervalOf(r lin) (int64, int64) {
	l, h := r.c, r.c
	for _, tm := range r.t {
		lo, hi := in.lo[tm.Sym], in.hi[tm.Sym]
		if tm.Coef < 0 {
			lo, hi = hi, lo
		}
		l, h = addB(l, mulB(tm.Coef, lo)), addB(h, mulB(tm.Coef, hi))
	}
	return l, h
}

// splits are the two orders of the distinct threads: thread1 < thread2,
// thread1 > thread2.
var splits = [2][2]int64{{1, -1}, {-1, 1}}

// build instantiates one split of the query "a1 and a2 touch the same
// word": geometry, the distinctness row, with guards the guard rows of
// both sides, and last eqr = addr1 − addr2 (strides excluded), which it
// returns without appending.
func (pr *prover) build(a1, a2 *access, sameCTA bool, sp [2]int64, guards bool) (*inst, lin) {
	in := pr.newInst(sameCTA)
	// Distinctness row: for same-CTA pairs the CTA-local tids differ;
	// across CTAs the cta ids differ. The difference is ≥ 1.
	d := lin{c: -1}
	if sameCTA {
		d.t = in.terms(Term{Sym: varLane1, Coef: sp[0]}, Term{Sym: varWarp1, Coef: 32 * sp[0]},
			Term{Sym: varLane2, Coef: sp[1]}, Term{Sym: varWarp2, Coef: 32 * sp[1]})
	} else {
		d.t = in.terms(Term{Sym: varCTA1, Coef: sp[0]}, Term{Sym: varCTA2, Coef: sp[1]})
	}
	in.rows = append(in.rows, d)
	if guards {
		for _, gc := range a1.guards {
			in.addGuard(gc, 1)
		}
		for _, gc := range a2.guards {
			in.addGuard(gc, 2)
		}
	}
	return in, in.diff(a1.addr, 1, a2.addr, 2)
}

// pre is what the address forms alone say of a pair, before any solver
// run: eqr and its interval do not depend on the split or the guards.
type pre uint8

const (
	preSolve    pre = iota // the splits' systems decide
	preDisjoint            // proved by a stride residue
	preRace                // cannot prove: the difference may wrap, or a stride defeats it
)

// preCheck classifies the pair from its address forms and their
// instantiation in (eqr is addr1 − addr2).
func (pr *prover) preCheck(a1, a2 *access, in *inst, eqr lin) pre {
	// Addresses are 32-bit registers, so they collide when P ≡ 0
	// (mod 2^32); only |P| < 2^32 makes that P = 0.
	lo, hi := in.intervalOf(eqr)
	if lo <= -wrap || hi >= wrap {
		return preRace
	}
	g := gcd64(a1.addr.Stride, a2.addr.Stride)
	if g == 0 || (lo > -g && hi < g) {
		// No stride, or |P| < g forces P = 0: the solver decides P = 0.
		return preSolve
	}
	// addr1 − addr2 = P + (stride steps); a collision needs P ≡ 0
	// (mod g). Refuted when every variable coefficient of P is divisible
	// by g but the constant is not.
	for _, tm := range eqr.t {
		if tm.Coef%g != 0 {
			return preRace
		}
	}
	if eqr.c%g != 0 {
		return preDisjoint
	}
	return preRace
}

// refutes reports whether every split of the query, with or without the
// guard rows, has no integer solution.
func (pr *prover) refutes(a1, a2 *access, sameCTA, guards bool) bool {
	for _, sp := range splits {
		in, eqr := pr.build(a1, a2, sameCTA, sp, guards)
		eqr.eq = true
		in.rows = append(in.rows, eqr)
		if pr.s.solve(in.rows) {
			return false
		}
	}
	return true
}

// disjoint proves that accesses a1 and a2 (by two distinct threads, in
// the same barrier interval when sameCTA) can never touch the same word.
//
// Past what the forms alone decide (distinct parameter bases, preCheck),
// it first asks the guard-free query of the pair's forms, once per form
// pair. Guard rows only add constraints and a refutation is sound, so a
// refuted guard-free query proves every pair of these forms disjoint,
// guarded or not. Otherwise a guarded pair runs its guarded query.
func (pr *prover) disjoint(a1, a2 *access, sameCTA bool) bool {
	if a1.addr.Top || a2.addr.Top {
		return false
	}
	// Parameters are assumed to point to disjoint in-bounds allocations
	// (DESIGN.md §6.14), which applies when each address is cleanly based
	// on a single one.
	if a1.base >= 0 && a2.base >= 0 && a1.base != a2.base {
		return true
	}
	pf := pr.pairFacts(a1, a2, sameCTA)
	if pf.pre != preSolve {
		return pf.pre == preDisjoint
	}
	if pf.bare == unknown {
		pf.bare = known(pr.refutes(a1, a2, sameCTA, false))
	}
	if pf.bare == yes || len(a1.guards)+len(a2.guards) == 0 {
		return pf.bare == yes
	}
	return pr.refutes(a1, a2, sameCTA, true)
}

// tri is a lazily computed yes/no fact.
type tri uint8

const (
	unknown tri = iota
	yes
	no
)

func known(b bool) tri {
	if b {
		return yes
	}
	return no
}

// pairKey names a form pair: the interned address forms of both sides.
type pairKey struct {
	f1, f2  int32
	sameCTA bool
}

// pairFacts is what the prover knows of one form pair: what preCheck
// says of it and the guard-free query's verdict.
type pairFacts struct {
	pre  pre
	bare tri
}

// pairFacts returns the form pair's facts, reading the forms on first
// sight.
func (pr *prover) pairFacts(a1, a2 *access, sameCTA bool) *pairFacts {
	key := pairKey{a1.form, a2.form, sameCTA}
	if pf, ok := pr.pairs[key]; ok {
		return pf
	}
	in, eqr := pr.build(a1, a2, sameCTA, splits[0], false)
	pf := &pairFacts{pre: pr.preCheck(a1, a2, in, eqr)}
	pr.pairs[key] = pf
	return pf
}

// classify reads the access's parameter base and interns its address
// form.
func (pr *prover) classify(a *access) {
	a.base = -1
	if b, ok := a.addr.paramBase(pr.t); ok {
		a.base = int16(b)
	}
	b := appendForm(nil, a.addr)
	id, ok := pr.forms[string(b)]
	if !ok {
		id = int32(len(pr.forms))
		pr.forms[string(b)] = id
	}
	a.form = id
}

// appendForm appends an encoding of v that two values share exactly
// when they are equal.
func appendForm(b []byte, v AbsVal) []byte {
	if v.Top {
		return append(b, 1)
	}
	b = append(b, 0)
	for _, x := range [...]int64{v.C, v.Lane, v.Warp, v.CTA, v.Stride, int64(len(v.Terms))} {
		b = binary.AppendVarint(b, x)
	}
	for _, tm := range v.Terms {
		b = binary.AppendVarint(binary.AppendVarint(b, int64(tm.Sym)), tm.Coef)
	}
	return b
}

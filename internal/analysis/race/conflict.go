package race

import (
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

// combine returns the row a·l + b·m, an equality when l is one.
func combine(l lin, a int64, m lin, b int64) lin {
	return lin{t: mergeTerms(l.t, a, m.t, b), c: a*l.c + b*m.c, eq: l.eq}
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

// normalize divides the row by the gcd of its coefficients, tightening
// the constant toward feasibility-preservation for integer solutions.
// Returns false if the row is already unsatisfiable.
func (l *lin) normalize() (ok, sat bool) {
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
		t := make([]Term, len(l.t)) // l.t may be shared with the caller's row
		for i, tm := range l.t {
			t[i] = Term{Sym: tm.Sym, Coef: tm.Coef / g}
		}
		l.t = t
	}
	return true, true
}

// push normalizes r and appends it to *dst unless it holds trivially.
// decided reports that r settles the whole system, with verdict the
// answer feasible must return: false when r is unsatisfiable, true (give
// up) when a coefficient passes coefLimit.
func push(dst *[]lin, r lin) (verdict, decided bool) {
	ok, sat := r.normalize()
	if !ok || !sat {
		return !ok, true
	}
	if len(r.t) > 0 {
		*dst = append(*dst, r)
	}
	return false, false
}

// feasible reports whether the system may have an integer solution.
// false is definitive (no integer solution); true is "could not refute".
// Every choice below breaks ties toward the lowest variable, so the
// elimination order is a function of the rows.
func feasible(rows []lin) bool {
	work := make([]lin, 0, len(rows))
	for _, r := range rows {
		if verdict, decided := push(&work, r); decided {
			return verdict
		}
	}

	// Substitute out equalities first.
	for {
		ei := slices.IndexFunc(work, func(r lin) bool { return r.eq })
		if ei < 0 {
			break
		}
		e := work[ei]
		work = slices.Delete(work, ei, ei+1)
		// Pivot on the variable with the smallest |coef|.
		p := e.t[0]
		for _, tm := range e.t[1:] {
			if abs64(tm.Coef) < abs64(p.Coef) {
				p = tm
			}
		}
		next := work[:0]
		for _, r := range work {
			// r' = |a|·r − sign(a)·b·e drops the pivot and keeps r's sense.
			if b := coefOf(r.t, p.Sym); b != 0 {
				if a := p.Coef; a > 0 {
					r = combine(r, a, e, -b)
				} else {
					r = combine(r, -a, e, b)
				}
			}
			if verdict, decided := push(&next, r); decided {
				return verdict
			}
		}
		work = next
	}

	// Fourier–Motzkin on the remaining inequalities.
	for len(work) > 0 {
		// Eliminate the variable minimizing pos·neg fill-in.
		var counts [][2]int
		for _, r := range work {
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
		best, bestCost := int32(-1), 1<<30
		for v, c := range counts {
			if cost := c[0] * c[1]; c != [2]int{} && cost < bestCost {
				best, bestCost = int32(v), cost
			}
		}
		var pos, neg, rest []lin
		for _, r := range work {
			switch v := coefOf(r.t, best); {
			case v > 0:
				pos = append(pos, r)
			case v < 0:
				neg = append(neg, r)
			default:
				rest = append(rest, r)
			}
		}
		for _, p := range pos {
			for _, n := range neg {
				nr := combine(p, -coefOf(n.t, best), n, coefOf(p.t, best))
				if verdict, decided := push(&rest, nr); decided {
					return verdict
				}
			}
		}
		if len(rest) > 600 {
			return true // blowup guard: give up
		}
		work = rest
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

// prover instantiates accesses into linear systems.
type prover struct {
	t   *symtab
	geo geometry
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
}

// bound allocates the next variable with range [lo, hi] and emits a
// bound row for each finite side.
func (in *inst) bound(lo, hi int64) int32 {
	v := int32(len(in.lo))
	in.lo, in.hi = append(in.lo, lo), append(in.hi, hi)
	if lo != negInf {
		in.rows = append(in.rows, lin{t: []Term{{Sym: v, Coef: 1}}, c: -lo}) // v ≥ lo
	}
	if hi != posInf {
		in.rows = append(in.rows, lin{t: []Term{{Sym: v, Coef: -1}}, c: hi}) // v ≤ hi
	}
	return v
}

func (pr *prover) newInst(sameCTA bool) *inst {
	in := &inst{pr: pr, sameCTA: sameCTA, vars: map[[2]int32]int32{}}
	// Geometry bounds for both sides, allocated in variable-id order.
	g := pr.geo
	for side := 0; side < 2; side++ {
		lane, warp := in.bound(0, 31), in.bound(0, g.warps-1)
		in.bound(0, g.ctas-1)
		// Partial last warp: tid = 32·warp + lane < threads.
		in.rows = append(in.rows, lin{t: []Term{{Sym: lane, Coef: -1}, {Sym: warp, Coef: -32}}, c: g.threads - 1})
	}
	if sameCTA {
		in.rows = append(in.rows, lin{t: []Term{{Sym: varCTA1, Coef: 1}, {Sym: varCTA2, Coef: -1}}, eq: true})
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

// row instantiates value v for side (1 or 2) as a row, excluding the
// stride component (handled by the caller).
func (in *inst) row(v AbsVal, side int) lin {
	lane, warp, cta := sideVars(side)
	t := make([]Term, 0, 3+len(v.Terms))
	for _, tm := range [3]Term{{Sym: lane, Coef: v.Lane}, {Sym: warp, Coef: v.Warp}, {Sym: cta, Coef: v.CTA}} {
		if tm.Coef != 0 {
			t = append(t, tm)
		}
	}
	for _, tm := range v.Terms {
		t = append(t, Term{Sym: in.symVar(tm.Sym, side), Coef: tm.Coef})
	}
	sortTerms(t)
	return lin{t: t, c: v.C}
}

// diff instantiates x on side sx minus y on side sy, x first.
func (in *inst) diff(x AbsVal, sx int, y AbsVal, sy int) lin {
	return combine(in.row(x, sx), 1, in.row(y, sy), -1)
}

// addGuard emits the linear row for "a cmp b" on the given side.
// Unrepresentable comparisons (NE) are skipped.
func (in *inst) addGuard(a, b AbsVal, cmp isa.Cmp, side int) {
	if a.Top || b.Top || a.Stride != 0 || b.Stride != 0 {
		return
	}
	var r lin
	switch cmp {
	case isa.EQ, isa.GT, isa.GE: // a - b (= 0 | - 1 ≥ 0 | ≥ 0)
		r = in.diff(a, side, b, side)
	case isa.LT, isa.LE: // b - a (- 1 ≥ 0 | ≥ 0)
		r = in.diff(b, side, a, side)
	default:
		return
	}
	if cmp == isa.LT || cmp == isa.GT {
		r.c--
	}
	r.eq = cmp == isa.EQ
	in.rows = append(in.rows, r)
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

// disjoint proves that accesses a1 and a2 (by two distinct threads, in
// the same barrier interval when sameCTA) can never touch the same word.
func (pr *prover) disjoint(a1, a2 *access, sameCTA bool) bool {
	if a1.addr.Top || a2.addr.Top {
		return false
	}
	// Distinct array bases: parameters are assumed to point to disjoint
	// in-bounds allocations (documented in DESIGN.md §6.14). Only applies
	// when each address is cleanly based on a single parameter.
	b1, ok1 := a1.addr.paramBase(pr.t)
	b2, ok2 := a2.addr.paramBase(pr.t)
	if ok1 && ok2 && b1 != b2 {
		return true
	}

	splits := [2][2]int64{{1, -1}, {-1, 1}} // thread1 < thread2, thread1 > thread2
	for _, sp := range splits {
		in := pr.newInst(sameCTA)

		// Distinctness row: for same-CTA pairs the CTA-local tids differ;
		// across CTAs the cta ids differ. The difference is ≥ 1.
		d := lin{t: []Term{{Sym: varCTA1, Coef: sp[0]}, {Sym: varCTA2, Coef: sp[1]}}, c: -1}
		if sameCTA {
			d.t = []Term{{Sym: varLane1, Coef: sp[0]}, {Sym: varWarp1, Coef: 32 * sp[0]},
				{Sym: varLane2, Coef: sp[1]}, {Sym: varWarp2, Coef: 32 * sp[1]}}
		}
		in.rows = append(in.rows, d)

		for _, gc := range a1.guards {
			in.addGuard(gc.a, gc.b, gc.cmp, 1)
		}
		for _, gc := range a2.guards {
			in.addGuard(gc.a, gc.b, gc.cmp, 2)
		}

		// The address-equality row P = addr1 − addr2 (strides excluded).
		// Addresses are 32-bit registers, so they collide when P ≡ 0
		// (mod 2^32); only |P| < 2^32 makes that P = 0.
		eqr := in.diff(a1.addr, 1, a2.addr, 2)
		lo, hi := in.intervalOf(eqr)
		if lo <= -wrap || hi >= wrap {
			return false
		}

		g := gcd64(a1.addr.Stride, a2.addr.Stride)
		if g != 0 {
			// addr1 − addr2 = P + (stride steps); a collision needs
			// P ≡ 0 (mod g). Two refutations:
			//  (a) interval: |P| < g forces P = 0 — prove P = 0 infeasible;
			//  (b) residue: every variable coefficient of P divisible by g
			//      but the constant is not.
			if lo > -g && hi < g {
				// fall through to the FM check with P = 0
			} else {
				allDiv := true
				for _, tm := range eqr.t {
					if tm.Coef%g != 0 {
						allDiv = false
						break
					}
				}
				if allDiv && eqr.c%g != 0 {
					continue // this split refuted
				}
				return false // cannot prove
			}
		}
		eqr.eq = true
		in.rows = append(in.rows, eqr)

		if feasible(in.rows) {
			return false
		}
	}
	return true
}

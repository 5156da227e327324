// Package race implements a static inter-warp data-race, barrier-phase
// and lock-discipline analysis over isa.Program, layered on the CFG and
// dataflow infrastructure of internal/analysis.
//
// The core is an abstract interpretation of each thread's register file
// in a relational address domain: every register value is abstracted as
//
//	c + a·laneid + b·warpid + e·ctaid + Σ coefᵢ·σᵢ  (+ stride·n, n ≥ 0)
//
// where the σᵢ are opaque symbols introduced for values the affine part
// cannot express (loads, div/rem results, widened loop variables, kernel
// parameters). Each symbol carries a uniformity kind — thread-varying,
// CTA-uniform, CTA-uniform and barrier-interval-stable, or grid-constant
// (parameter) — plus an interval bound, both of which the conflict
// prover (conflict.go) exploits: stable symbols are shared between two
// threads of one CTA inside one barrier interval, parameters are shared
// always, everything else is existentially distinct per thread.
//
// Launch geometry (CTA count, threads per CTA) is substituted concretely,
// matching how the analysis is consumed: warplint analyzes registered
// kernels at their recorded launch configuration and warpsimd admission
// analyzes the requested launch.
package race

import (
	"fmt"

	"warpsched/internal/isa"
)

// Bounds use saturating sentinels far from the int64 edges so sums of a
// few bounds can never overflow.
const (
	negInf = int64(-1) << 56
	posInf = int64(1) << 56
)

// wrap is the modulus of register arithmetic: an affine form is an exact
// integer, congruent mod wrap to the 32-bit register it describes.
const wrap = int64(1) << 32

func clampBound(v int64) int64 {
	if v <= negInf {
		return negInf
	}
	if v >= posInf {
		return posInf
	}
	return v
}

// addB adds two bounds with infinity saturation.
func addB(a, b int64) int64 {
	if a == negInf || b == negInf {
		return negInf
	}
	if a == posInf || b == posInf {
		return posInf
	}
	return clampBound(a + b)
}

// mulB multiplies a finite coefficient k into a bound.
func mulB(k, b int64) int64 {
	if k == 0 {
		return 0
	}
	if b == negInf {
		if k > 0 {
			return negInf
		}
		return posInf
	}
	if b == posInf {
		if k > 0 {
			return posInf
		}
		return negInf
	}
	return clampBound(k * b)
}

// symKind classifies how an opaque symbol's value relates across threads.
type symKind uint8

const (
	// symVarying: each thread may hold a different value.
	symVarying symKind = iota
	// symUniform: CTA-uniform, but may take several values inside one
	// barrier interval (its definition sits on a barrier-free cycle), so
	// two threads of one interval cannot be assumed to agree on it.
	symUniform
	// symStable: CTA-uniform and interval-stable — the defining
	// instruction executes at most once per barrier interval, so every
	// thread of the CTA observing it inside one interval sees the same
	// value. Shared between same-CTA sides in the conflict prover.
	symStable
	// symParam: a kernel parameter — one value for the whole grid.
	symParam
)

// symInfo is the per-symbol record of the interner.
type symInfo struct {
	kind   symKind
	lo, hi int64
	// origin describes where the symbol was introduced, for messages and
	// for the constraint-freshness check (a guard constraint mentioning a
	// symbol is dropped if the symbol can be redefined between the setp
	// and the guarded access).
	originPC int32 // -1 for parameters
	param    uint8
}

type symKey struct {
	pc    int32
	reg   isa.Reg
	widen bool
	param int16 // >= 0 for parameter symbols
}

// symtab interns symbols so the same definition site always yields the
// same symbol identity across fixpoint iterations (required both for
// termination and for sharing symbols between the two sides of a pair).
type symtab struct {
	syms  []symInfo
	byKey map[symKey]int32
}

func newSymtab() *symtab {
	return &symtab{byKey: make(map[symKey]int32)}
}

func (t *symtab) info(id int32) *symInfo { return &t.syms[id] }

// intern returns the symbol for key, creating it with the given
// attributes on first sight. On re-interning, the kind may only weaken
// (varying absorbs uniform absorbs stable) and bounds widen monotonically
// so the enclosing fixpoint terminates.
func (t *symtab) intern(key symKey, kind symKind, lo, hi int64) int32 {
	if id, ok := t.byKey[key]; ok {
		s := &t.syms[id]
		if kind < s.kind && s.kind != symParam {
			s.kind = kind
		}
		// Widening: a bound that moves past its recorded value jumps to a
		// landmark rather than chasing the sequence — zero first for lower
		// bounds (loop counters shrink toward zero; keeping lo ≥ 0 keeps
		// logical-shift reasoning exact), then infinity.
		if lo < s.lo {
			if lo >= 0 {
				s.lo = 0
			} else {
				s.lo = negInf
			}
		}
		if hi > s.hi {
			s.hi = posInf
		}
		return id
	}
	id := int32(len(t.syms))
	s := symInfo{kind: kind, lo: clampBound(lo), hi: clampBound(hi), originPC: key.pc}
	if key.param >= 0 {
		s.originPC = -1
		s.param = uint8(key.param)
	}
	t.syms = append(t.syms, s)
	t.byKey[key] = id
	return id
}

func (t *symtab) paramSym(idx uint8) int32 {
	return t.intern(symKey{pc: -1, reg: 0, param: int16(idx)}, symParam, negInf, posInf)
}

// Term is one opaque-symbol component of an abstract value.
type Term struct {
	Sym  int32
	Coef int64
}

// maxTerms caps the symbolic part of a value; beyond it the value goes
// to top (an unknown address, reported as a potential conflict).
const maxTerms = 6

// AbsVal is one abstract register value (see the package comment).
type AbsVal struct {
	Top             bool
	C               int64
	Lane, Warp, CTA int64
	Terms           []Term
	// Stride != 0 means the value additionally includes Stride·n for some
	// unknown n ≥ 0 — the shape of a loop induction variable advancing by
	// a constant step. Always > 0 when set.
	Stride int64
}

func top() AbsVal           { return AbsVal{Top: true} }
func constV(c int64) AbsVal { return AbsVal{C: c} }

func symV(id int32) AbsVal { return AbsVal{Terms: []Term{{Sym: id, Coef: 1}}} }

// IsConst reports whether the value is a known constant.
func (v AbsVal) IsConst() bool {
	return !v.Top && v.Lane == 0 && v.Warp == 0 && v.CTA == 0 && len(v.Terms) == 0 && v.Stride == 0
}

// equal reports exact structural equality.
func (v AbsVal) equal(w AbsVal) bool {
	if v.Top != w.Top || v.C != w.C || v.Lane != w.Lane || v.Warp != w.Warp ||
		v.CTA != w.CTA || v.Stride != w.Stride || len(v.Terms) != len(w.Terms) {
		return false
	}
	for i := range v.Terms {
		if v.Terms[i] != w.Terms[i] {
			return false
		}
	}
	return true
}

// sameShape reports whether v and w differ at most in the constant part.
func (v AbsVal) sameShape(w AbsVal) bool {
	if v.Top || w.Top || v.Lane != w.Lane || v.Warp != w.Warp ||
		v.CTA != w.CTA || len(v.Terms) != len(w.Terms) {
		return false
	}
	for i := range v.Terms {
		if v.Terms[i] != w.Terms[i] {
			return false
		}
	}
	return true
}

// mergeTerms returns a·x + b·y over two Sym-sorted term lists, sorted
// and without zero coefficients.
func mergeTerms(x []Term, a int64, y []Term, b int64) []Term {
	return appendMerged(make([]Term, 0, len(x)+len(y)), x, a, y, b)
}

// appendMerged appends mergeTerms(x, a, y, b) to out.
func appendMerged(out, x []Term, a int64, y []Term, b int64) []Term {
	i, j := 0, 0
	for i < len(x) || j < len(y) {
		var t Term
		switch {
		case j == len(y) || (i < len(x) && x[i].Sym < y[j].Sym):
			t = Term{Sym: x[i].Sym, Coef: a * x[i].Coef}
			i++
		case i == len(x) || y[j].Sym < x[i].Sym:
			t = Term{Sym: y[j].Sym, Coef: b * y[j].Coef}
			j++
		default:
			t = Term{Sym: x[i].Sym, Coef: a*x[i].Coef + b*y[j].Coef}
			i++
			j++
		}
		if t.Coef != 0 {
			out = append(out, t)
		}
	}
	return out
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// addScaled returns v + k·w.
func addScaled(v, w AbsVal, k int64) AbsVal {
	if v.Top || w.Top {
		return top()
	}
	terms := mergeTerms(v.Terms, 1, w.Terms, k)
	if len(terms) > maxTerms {
		return top()
	}
	r := AbsVal{
		C:     v.C + k*w.C,
		Lane:  v.Lane + k*w.Lane,
		Warp:  v.Warp + k*w.Warp,
		CTA:   v.CTA + k*w.CTA,
		Terms: terms,
	}
	// Strided components combine into the gcd of the steps. A negatively
	// scaled stride no longer advances upward, so it degrades to top via
	// the caller-side widening (kept simple: treat as unknown).
	switch {
	case w.Stride != 0 && k < 0:
		return top()
	case v.Stride != 0 && w.Stride != 0:
		r.Stride = gcd64(v.Stride, w.Stride*k)
	case v.Stride != 0:
		r.Stride = v.Stride
	case w.Stride != 0:
		r.Stride = w.Stride * k
	}
	return r
}

func (v AbsVal) add(w AbsVal) AbsVal { return addScaled(v, w, 1) }
func (v AbsVal) sub(w AbsVal) AbsVal { return addScaled(v, w, -1) }

// mulConst returns k·v.
func (v AbsVal) mulConst(k int64) AbsVal {
	if v.Top {
		return top()
	}
	if k == 0 {
		return constV(0)
	}
	if v.Stride != 0 && k < 0 {
		return top()
	}
	terms := make([]Term, len(v.Terms))
	for i, t := range v.Terms {
		terms[i] = Term{Sym: t.Sym, Coef: t.Coef * k}
	}
	return AbsVal{C: v.C * k, Lane: v.Lane * k, Warp: v.Warp * k, CTA: v.CTA * k,
		Terms: terms, Stride: v.Stride * k}
}

// geometry is the concrete launch shape the analysis runs at.
type geometry struct {
	ctas, threads int64 // gridDim.x, blockDim.x
	warps         int64 // warps per CTA
}

// bounds evaluates the value's interval at the given geometry.
func (v AbsVal) bounds(t *symtab, g geometry) (int64, int64) {
	if v.Top {
		return negInf, posInf
	}
	lo, hi := v.C, v.C
	rng := func(k, vlo, vhi int64) {
		if k >= 0 {
			lo, hi = addB(lo, mulB(k, vlo)), addB(hi, mulB(k, vhi))
		} else {
			lo, hi = addB(lo, mulB(k, vhi)), addB(hi, mulB(k, vlo))
		}
	}
	rng(v.Lane, 0, 31)
	rng(v.Warp, 0, g.warps-1)
	rng(v.CTA, 0, g.ctas-1)
	for _, tm := range v.Terms {
		s := t.info(tm.Sym)
		rng(tm.Coef, s.lo, s.hi)
	}
	if v.Stride != 0 {
		hi = posInf
	}
	return lo, hi
}

// inRange reports whether every value of the form lies in [lo, hi),
// stride steps aside: a grid-stride induction variable is assumed not
// to wrap (DESIGN.md §6.14).
func (v AbsVal) inRange(t *symtab, g geometry, lo, hi int64) bool {
	v.Stride = 0
	l, h := v.bounds(t, g)
	return l >= lo && h < hi
}

// fitsInt32 reports whether the form is the value an instruction that
// reads its register as an int32 (setp, div, rem, min, max) sees.
// Otherwise the register wraps and the form's interval says nothing.
func (v AbsVal) fitsInt32(t *symtab, g geometry) bool {
	return v.inRange(t, g, -wrap/2, wrap/2)
}

// uniform reports whether the value is CTA-uniform: no per-thread
// component and only non-varying symbols. A ctaid component is allowed —
// it is constant within a CTA.
func (v AbsVal) uniform(t *symtab) bool {
	if v.Top || v.Lane != 0 || v.Warp != 0 {
		return false
	}
	for _, tm := range v.Terms {
		if t.info(tm.Sym).kind == symVarying {
			return false
		}
	}
	return true
}

// stableUniform additionally requires every symbol to be shareable
// within a barrier interval.
func (v AbsVal) stableUniform(t *symtab) bool {
	if !v.uniform(t) {
		return false
	}
	for _, tm := range v.Terms {
		if k := t.info(tm.Sym).kind; k != symStable && k != symParam {
			return false
		}
	}
	return true
}

// globalConst reports whether the value is identical for every thread of
// the grid: constants and parameter symbols only.
func (v AbsVal) globalConst(t *symtab) bool {
	if v.Top || v.Lane != 0 || v.Warp != 0 || v.CTA != 0 || v.Stride != 0 {
		return false
	}
	for _, tm := range v.Terms {
		if t.info(tm.Sym).kind != symParam {
			return false
		}
	}
	return true
}

// paramBase returns the parameter index the value is based on, if the
// value contains exactly one parameter symbol with coefficient 1.
func (v AbsVal) paramBase(t *symtab) (uint8, bool) {
	var idx uint8
	found := false
	for _, tm := range v.Terms {
		s := t.info(tm.Sym)
		if s.kind != symParam {
			continue
		}
		if found || tm.Coef != 1 {
			return 0, false
		}
		idx, found = s.param, true
	}
	return idx, found
}

// describe renders the value for finding messages.
func (v AbsVal) describe(t *symtab) string {
	if v.Top {
		return "<unknown>"
	}
	out := ""
	emit := func(k int64, name string) {
		if k == 0 {
			return
		}
		if out != "" {
			out += "+"
		}
		if k == 1 {
			out += name
		} else {
			out += fmt.Sprintf("%d*%s", k, name)
		}
	}
	for _, tm := range v.Terms {
		if in := t.info(tm.Sym); in.kind == symParam {
			emit(tm.Coef, fmt.Sprintf("param%d", in.param))
		} else {
			emit(tm.Coef, fmt.Sprintf("v@pc%d", in.originPC))
		}
	}
	emit(v.Lane, "lane")
	emit(v.Warp, "warp")
	emit(v.CTA, "cta")
	if v.Stride != 0 {
		if out != "" {
			out += "+"
		}
		out += fmt.Sprintf("%d*n", v.Stride)
	}
	if v.C != 0 || out == "" {
		if out != "" {
			out += fmt.Sprintf("%+d", v.C)
		} else {
			out = fmt.Sprintf("%d", v.C)
		}
	}
	return out
}

package race

import (
	"fmt"

	"warpsched/internal/analysis"
	"warpsched/internal/isa"
)

// Options configures an analysis run. The launch geometry is substituted
// concretely into the abstract domain; zero values default to 2 CTAs of
// 64 threads (the repo's canonical small launch).
type Options struct {
	GridCTAs   int32
	CTAThreads int32
}

// guardCon is one linear fact known about the thread executing an
// access: the relation a cmp b held at the controlling setp.
type guardCon struct {
	a, b AbsVal
	cmp  isa.Cmp
}

// access is one reachable memory instruction with everything the pair
// stage needs.
type access struct {
	pc     int32
	in     *isa.Instr
	addr   AbsVal
	isSt   bool
	deadLd bool
	guards []guardCon
	held   []*acquireSite
	// base is the parameter the address is based on, or -1; form interns
	// the address form (prover.classify).
	base int16
	form int32
}

// Analyze runs the full static race/lock/barrier analysis over p at the
// given launch geometry.
func Analyze(p *isa.Program, opt Options) *analysis.Report {
	rep, _ := analyze(p, opt, nil)
	return rep
}

// analyze is Analyze, also returning how many prover instantiations the
// pair stage built. Unless nil, disjoint is called with every access
// pair (lowPC, highPC) that the prover claims can never touch the same
// word from two threads of one barrier interval (sameCTA) or of two
// CTAs: an observed collision on such a pair is a soundness bug.
// Exempted pairs (volatile spin reads, lock releases, lock-protected
// accesses) are never passed.
func analyze(p *isa.Program, opt Options, disjoint func(pc1, pc2 int32, sameCTA bool)) (*analysis.Report, int) {
	if err := p.Validate(); err != nil {
		return &analysis.Report{Program: p.Name, Findings: []analysis.Finding{{
			Program: p.Name, PC: -1,
			Category: analysis.CatInvalid, Class: analysis.CatInvalid.Class(),
			Message: err.Error(),
		}}}, 0
	}
	geo := geometry{ctas: int64(opt.GridCTAs), threads: int64(opt.CTAThreads)}
	if geo.ctas <= 0 {
		geo.ctas = 2
	}
	if geo.threads <= 0 {
		geo.threads = 64
	}
	geo.warps = (geo.threads + 31) / 32

	g := analysis.BuildCFG(p)
	it := newInterp(p, g, geo)
	it.run()

	az := &analyzer{p: p, g: g, it: it, reach: map[[2]int32][]bool{}}
	locks := analyzeLocks(it, g)
	iv := buildIntervals(p, g)
	deadLd := analysis.DeadLoadDests(g)

	var pcs []int32
	for pc := int32(0); pc < g.N; pc++ {
		if p.At(pc).Op.IsMem() && it.reached[pc] {
			pcs = append(pcs, pc)
		}
	}
	guards := az.guardsFor(pcs)
	pr := newProver(it.t, geo)
	accs := make([]*access, len(pcs))
	for i, pc := range pcs {
		in := p.At(pc)
		accs[i] = &access{
			pc: pc, in: in,
			addr:   it.addr(pc),
			isSt:   in.Op == isa.OpSt,
			deadLd: deadLd[pc],
			guards: guards[i],
			held:   locks.mustHeld[pc],
		}
		pr.classify(accs[i])
	}
	all := append([]analysis.Finding{}, locks.findings...)
	all = append(all, checkBarrierReachability(p, g)...)

	for i, a1 := range accs {
		for _, a2 := range accs[i:] {
			if !a1.isSt && !a2.isSt {
				continue // at least one plain store, or no race
			}
			if exemptPair(a1, a2, it) {
				continue
			}
			sameConc := iv.same(a1.pc, a2.pc)
			crossConc := geo.ctas > 1
			sameRace := sameConc && !pr.disjoint(a1, a2, true)
			crossRace := crossConc && !pr.disjoint(a1, a2, false)
			if disjoint != nil && sameConc && !sameRace {
				disjoint(a1.pc, a2.pc, true)
			}
			if disjoint != nil && crossConc && !crossRace {
				disjoint(a1.pc, a2.pc, false)
			}
			if sameRace || crossRace {
				all = append(all, raceFinding(p, a1, a2, it, sameRace, crossRace))
			}
		}
	}

	return analysis.BuildReport(p, all), pr.insts
}

// exemptPair filters intended racy-looking idioms before proving.
func exemptPair(a1, a2 *access, it *interp) bool {
	for _, a := range [2]*access{a1, a2} {
		if a.in.Op == isa.OpLd && a.in.Vol {
			return true // volatile spin read: synchronization by intent
		}
		if a.in.HasAnn(isa.AnnLockRelease) {
			return true // unlock publish
		}
		if a.deadLd {
			return true // timing-only touch load, value never used
		}
	}
	// Eraser-style common lock: both sides hold the same global lock word.
	for _, h1 := range a1.held {
		if !h1.addr.globalConst(it.t) {
			continue
		}
		for _, h2 := range a2.held {
			if h2.key == h1.key {
				return true
			}
		}
	}
	// Lock-delta: each side holds a lock at the same constant offset from
	// the data word (lock[i] protecting data[i]). Equal data addresses
	// would force equal lock addresses, and two threads cannot hold the
	// same lock word concurrently — so the accesses are mutually excluded
	// whenever they would collide.
	for _, h1 := range a1.held {
		for _, h2 := range a2.held {
			d1 := a1.addr.sub(h1.addr)
			d2 := a2.addr.sub(h2.addr)
			if d1.globalConst(it.t) && d2.globalConst(it.t) && d1.equal(d2) {
				return true
			}
		}
	}
	return false
}

func raceFinding(p *isa.Program, a1, a2 *access, it *interp, same, cross bool) analysis.Finding {
	scen := ""
	switch {
	case same && cross:
		scen = "within a barrier interval and across CTAs"
	case same:
		scen = "within one barrier interval"
	default:
		scen = "across CTAs"
	}
	lo, hi := minMax(a1.pc, a2.pc)
	var msg string
	if a1.pc == a2.pc {
		msg = fmt.Sprintf("possible data race: %s at pc %d [%s] may touch the same word from two threads %s, and at least one is a non-atomic store",
			a1.in.Op, a1.pc, a1.addr.describe(it.t), scen)
	} else {
		msg = fmt.Sprintf("possible data race: %s at pc %d [%s] and %s at pc %d [%s] may touch the same word %s, and at least one is a non-atomic store",
			a1.in.Op, a1.pc, a1.addr.describe(it.t), a2.in.Op, a2.pc, a2.addr.describe(it.t), scen)
	}
	return analysis.Finding{Program: p.Name, PC: lo, OtherPC: other(lo, hi),
		Category: analysis.CatRace, Message: msg}
}

// analyzer carries the per-program caches of the guard-constraint
// extraction.
type analyzer struct {
	p  *isa.Program
	g  *analysis.CFG
	it *interp
	// reach caches reachAvoid results keyed by {start, avoid}.
	reach map[[2]int32][]bool
}

// reachAvoid returns the nodes reachable from start's successors without
// expanding node avoid. start itself is marked only when a cycle returns
// to it.
func (az *analyzer) reachAvoid(start, avoid int32) []bool {
	key := [2]int32{start, avoid}
	if m, ok := az.reach[key]; ok {
		return m
	}
	m := az.g.Walk(az.g.Succ[start], false, func(v int32) bool { return v == avoid })
	az.reach[key] = m
	return m
}

// reachingSetps walks backwards from pc to the setps defining pred that
// reach it. ok is false when a path from entry carries no definition or
// a reaching setp is guarded (partial definition — unclassifiable).
func (az *analyzer) reachingSetps(pc int32, pred isa.Pred) ([]int32, bool) {
	isDef := func(v int32) bool {
		in := az.p.At(v)
		return in.Op == isa.OpSetp && in.PDst == pred
	}
	var out []int32
	m := az.g.Walk(az.g.Pred[pc], true, isDef)
	for v := int32(0); v < az.g.N; v++ {
		if !m[v] || !isDef(v) {
			continue
		}
		if az.p.At(v).Guarded() {
			return nil, false
		}
		out = append(out, v)
	}
	return out, !m[0] || isDef(0) // false when entry is reached undefined
}

// fresh reports whether the setp's operand symbols are stable between
// the setp and the access: no symbol origin lies on a setp-avoiding path
// strictly between them (a redefinition there would make the constraint
// relate a stale instance).
func (az *analyzer) fresh(spc, accessPC int32, vals ...AbsVal) bool {
	fromSetp := az.reachAvoid(spc, spc)
	for _, v := range vals {
		for _, tm := range v.Terms {
			origin := az.it.t.info(tm.Sym).originPC
			if origin < 0 || !fromSetp[origin] {
				continue
			}
			if origin == accessPC || az.reachAvoid(origin, spc)[accessPC] {
				return false
			}
		}
	}
	return true
}

// negCmp returns the complement comparison.
func negCmp(c isa.Cmp) isa.Cmp {
	switch c {
	case isa.EQ:
		return isa.NE
	case isa.NE:
		return isa.EQ
	case isa.LT:
		return isa.GE
	case isa.LE:
		return isa.GT
	case isa.GT:
		return isa.LE
	}
	return isa.LT // GE
}

// constraintFrom builds the guard constraint of predicate pred holding
// value predTrue for the access at accessPC, anchored at the predicate's
// single reaching setp relative to position pos (the access itself, or
// the controlling branch).
func (az *analyzer) constraintFrom(pos, accessPC int32, pred isa.Pred, predTrue bool) (guardCon, bool) {
	setps, ok := az.reachingSetps(pos, pred)
	if !ok || len(setps) != 1 {
		return guardCon{}, false
	}
	spc := setps[0]
	if !az.it.reached[spc] {
		return guardCon{}, false
	}
	rel := az.it.setps[spc]
	// setp compares int32 registers: the forms' relation is the
	// registers' only while neither form can wrap (nor is top).
	if !rel.a.fitsInt32(az.it.t, az.it.geo) || !rel.b.fitsInt32(az.it.t, az.it.geo) {
		return guardCon{}, false
	}
	if !az.fresh(spc, accessPC, rel.a, rel.b) {
		return guardCon{}, false
	}
	cmp := rel.cmp
	if !predTrue {
		cmp = negCmp(cmp)
	}
	return guardCon{a: rel.a, b: rel.b, cmp: cmp}, true
}

// guardsFor extracts, for each access PC in pcs, the linear facts known
// about any thread executing it: its own guard predicate, plus every
// guarded branch from which the access is reachable via exactly one edge
// (so the last execution of that branch determines the predicate's
// value). Facts the prover has no row for are dropped.
func (az *analyzer) guardsFor(pcs []int32) [][]guardCon {
	out := make([][]guardCon, len(pcs))
	for i, pc := range pcs {
		in := az.p.At(pc)
		if !in.Guarded() {
			continue
		}
		if c, ok := az.constraintFrom(pc, pc, isa.Pred(in.Guard), !in.GuardNeg); ok && c.representable() {
			out[i] = append(out[i], c)
		}
	}
	for bpc := int32(0); bpc < az.g.N; bpc++ {
		bi := az.p.At(bpc)
		if bi.Op != isa.OpBra || !bi.Guarded() || !az.it.reached[bpc] {
			continue
		}
		// What each edge reaches without passing the branch again.
		fall := bpc + 1
		stop := func(v int32) bool { return v == bpc }
		taken := az.g.Walk(az.g.Succ[bi.Target], false, stop)
		fell := az.g.Walk(az.g.Succ[fall], false, stop)
		for i, pc := range pcs {
			onTaken := taken[pc] || bi.Target == pc
			onFall := fell[pc] || fall == pc
			if pc == bpc || onTaken == onFall {
				continue // both or neither: the branch tells us nothing
			}
			// taken edge ⟺ predicate == !GuardNeg.
			predTrue := onTaken != bi.GuardNeg
			if c, ok := az.constraintFrom(bpc, pc, isa.Pred(bi.Guard), predTrue); ok && c.representable() {
				out[i] = append(out[i], c)
			}
		}
	}
	return out
}

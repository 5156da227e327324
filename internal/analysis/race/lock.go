package race

import (
	"fmt"
	"slices"

	"warpsched/internal/analysis"
	"warpsched/internal/isa"
)

// acquireSite is one atomic AnnLockAcquire instruction with what the
// lockset exploration reads of it, computed once per analysis. Sites are
// numbered in PC order.
type acquireSite struct {
	pc   int32
	addr AbsVal
	// key numbers the locked word's address form: two sites, or a site
	// and a release, lock the same word exactly when their keys agree.
	key int32
	// A classifiable acquire is resolved by a branch on its result
	// register dst (the atomicCAS spin idiom: cas; setp.eq p,old,0;
	// @!p bra): an unguarded CAS against an immediate or an exchange.
	// succVal is the dst value that means "lock taken".
	classifiable bool
	dst          isa.Reg
	succVal      int64
}

// lockset counts, for each of a program's n acquire sites, the entries
// of that site a path holds: ls[2i] held and ls[2i+1] pending (acquired,
// success not yet known) for site i, and ls[2n+i] of those pending
// entries unclassifiable, because the result register was overwritten
// before the success test. An acquire re-entered around its retry loop
// before it resolves (TB's try-lock) leaves one more pending entry each
// time, so the counts matter, not only which sites appear. Paths at one
// program point are the same exploration state when ls[:2n] agree. A
// site's entries only grow at its own PC, which explores at most
// maxLocksetsPerPC locksets, so no count exceeds maxLocksetsPerPC and a
// byte holds it.
type lockset string

// predCmp is the last path-local "reg cmp imm" setp per predicate,
// used to classify acquire success edges.
type predCmp struct {
	valid bool
	reg   isa.Reg
	k     int64
	cmp   isa.Cmp
}

// lockResult is everything the lockset DFS learned.
type lockResult struct {
	findings []analysis.Finding
	// mustHeld[pc]: acquire sites held (resolved) on every path reaching
	// pc.
	mustHeld map[int32][]*acquireSite
}

// lockState is one DFS configuration.
type lockState struct {
	pc    int32
	locks lockset
	setps [isa.NumPreds]predCmp
}

// maxLocksetsPerPC caps distinct locksets explored per program point;
// beyond it the point is saturated and its must-held set cleared (sound:
// fewer exemptions).
const maxLocksetsPerPC = 16

// flipCmp mirrors a comparison across its operands (imm cmp reg →
// reg flip cmp imm).
func flipCmp(c isa.Cmp) isa.Cmp {
	switch c {
	case isa.LT:
		return isa.GT
	case isa.LE:
		return isa.GE
	case isa.GT:
		return isa.LT
	case isa.GE:
		return isa.LE
	}
	return c // EQ, NE symmetric
}

// sites are a program's acquire sites, numbered in PC order.
type sites []acquireSite

// lockSites numbers the acquire sites and the lock words of the
// reachable PCs: siteAt[pc] is the site at pc or -1, and keyAt[pc] the
// key of a lock-annotated pc.
func lockSites(it *interp, n int32) (ss sites, siteAt, keyAt []int32) {
	siteAt, keyAt = make([]int32, n), make([]int32, n)
	keys := map[string]int32{}
	for pc := int32(0); pc < n; pc++ {
		siteAt[pc] = -1
		in := it.p.At(pc)
		if !it.reached[pc] || !in.HasAnn(isa.AnnLockAcquire|isa.AnnLockRelease) {
			continue
		}
		addr := it.addr(pc)
		form := string(appendForm(nil, addr))
		k, ok := keys[form]
		if !ok {
			k = int32(len(keys))
			keys[form] = k
		}
		keyAt[pc] = k
		if !in.HasAnn(isa.AnnLockAcquire) || !in.Op.IsAtomic() {
			continue
		}
		s := acquireSite{pc: pc, addr: addr, key: k}
		switch {
		case in.Op == isa.OpAtomCAS && in.C.Kind == isa.OpdImm:
			s.classifiable, s.dst, s.succVal = true, in.Dst, int64(in.C.Imm)
		case in.Op == isa.OpAtomExch:
			s.classifiable, s.dst, s.succVal = true, in.Dst, 0
		}
		s.classifiable = s.classifiable && !in.Guarded()
		siteAt[pc] = int32(len(ss))
		ss = append(ss, s)
	}
	return ss, siteAt, keyAt
}

// counts returns site i's held, pending and unclassifiable-pending
// entries.
func (ss sites) counts(ls lockset, i int) (held, pend, unc byte) {
	return ls[2*i], ls[2*i+1], ls[2*len(ss)+i]
}

// with returns ls with site i's counts replaced.
func (ss sites) with(ls lockset, i int, held, pend, unc byte) lockset {
	b := []byte(ls)
	b[2*i], b[2*i+1], b[2*len(ss)+i] = held, pend, unc
	return lockset(b)
}

// declassify makes every classifiable pending entry whose result
// register is dst unclassifiable.
func (ss sites) declassify(ls lockset, dst isa.Reg) lockset {
	for i, s := range ss {
		if held, pend, unc := ss.counts(ls, i); pend > unc && s.classifiable && s.dst == dst {
			ls = ss.with(ls, i, held, pend, pend)
		}
	}
	return ls
}

// release drops one entry locking key and reports whether there was
// one. A held entry goes first, since releasing the word frees the lock
// the path holds, whichever site took it; otherwise an unclassifiable
// pending entry, and last a classifiable one (always its site's newest).
// Sites go in PC order.
func (ss sites) release(ls lockset, key int32) (lockset, bool) {
	for rank := range 3 {
		for i, s := range ss {
			held, pend, unc := ss.counts(ls, i)
			switch {
			case s.key != key:
				continue
			case rank == 0 && held > 0:
				held--
			case rank == 1 && unc > 0:
				pend, unc = pend-1, unc-1
			case rank == 2 && pend > unc:
				pend--
			default:
				continue
			}
			return ss.with(ls, i, held, pend, unc), true
		}
	}
	return ls, false
}

// classify resolves classifiable pending acquires along a branch edge
// where the guard predicate is known to be predTrue and was defined by
// rel: the predicate is (dst cmp k), and it may show dst == succVal
// (taken) or dst != succVal (failed, dropped).
func (ss sites) classify(ls lockset, rel predCmp, predTrue bool) lockset {
	if !rel.valid || (rel.cmp != isa.EQ && rel.cmp != isa.NE) {
		return ls
	}
	eq := rel.cmp == isa.EQ
	for i, s := range ss {
		held, pend, unc := ss.counts(ls, i)
		if pend == unc || !s.classifiable || s.dst != rel.reg {
			continue
		}
		switch {
		case rel.k == s.succVal && eq == predTrue:
			ls = ss.with(ls, i, held+pend-unc, unc, unc)
		case rel.k == s.succVal || eq && predTrue:
			ls = ss.with(ls, i, held, unc, unc)
		}
	}
	return ls
}

// analyzeLocks runs a path-sensitive lockset exploration, reporting
// double acquires, releases without a matching acquire, locks still held
// at thread exit, and acquisition-order cycles between blocking locks.
// A program with no AnnLockAcquire and no AnnLockRelease gets the empty
// result without exploring: its locksets stay empty on every path, so
// there is nothing to report and no lock held anywhere.
func analyzeLocks(it *interp, g *analysis.CFG) *lockResult {
	p := it.p
	res := &lockResult{}
	if !hasLockAnn(p) {
		return res
	}
	res.mustHeld = map[int32][]*acquireSite{}
	blocking := blockingAcquires(p, g)
	ss, siteAt, keyAt := lockSites(it, g.N)
	n := len(ss)
	seen := make([][]lockset, g.N) // the locksets explored at each PC

	// edges: k2 acquired blocking while k1 held, one per key pair, at
	// the PCs of the last such acquire explored.
	type lockEdge struct{ k1, k2, heldPC, acqPC int32 }
	var edges []lockEdge

	report := func(f analysis.Finding) {
		if !slices.ContainsFunc(res.findings, func(g analysis.Finding) bool {
			return g.Category == f.Category && g.PC == f.PC && g.OtherPC == f.OtherPC
		}) {
			res.findings = append(res.findings, f)
		}
	}

	intersectMust := func(pc int32, ls lockset) {
		cur, ok := res.mustHeld[pc]
		var kept []*acquireSite
		for i := range ss {
			if ls[2*i] > 0 && (!ok || slices.Contains(cur, &ss[i])) {
				kept = append(kept, &ss[i])
			}
		}
		res.mustHeld[pc] = kept
	}

	stack := []lockState{{pc: 0, locks: lockset(make([]byte, 3*n))}}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pc := st.pc

		if pc >= g.N { // virtual exit
			continue
		}
		key := st.locks[:2*n]
		if slices.Contains(seen[pc], key) {
			continue
		}
		if len(seen[pc]) >= maxLocksetsPerPC {
			res.mustHeld[pc] = nil // saturated
			continue
		}
		seen[pc] = append(seen[pc], key)
		intersectMust(pc, st.locks)

		in := p.At(pc)
		locks := st.locks
		setps := st.setps

		// A write to an acquire's result register after the acquire makes
		// the success test unclassifiable on this path.
		if in.WritesReg() && !in.HasAnn(isa.AnnLockAcquire) {
			locks = ss.declassify(locks, in.Dst)
		}

		switch {
		case siteAt[pc] >= 0:
			si := int(siteAt[pc])
			s := &ss[si]
			for i, h := range ss {
				if locks[2*i] == 0 {
					continue
				}
				if h.key == s.key && s.addr.globalConst(it.t) {
					lo, hi := minMax(h.pc, pc)
					report(analysis.Finding{Program: p.Name, PC: lo, OtherPC: other(lo, hi),
						Category: analysis.CatDoubleAcquire,
						Message: fmt.Sprintf("lock [%s] acquired at pc %d is still held when re-acquired at pc %d — self-deadlock on a non-reentrant lock",
							s.addr.describe(it.t), h.pc, pc)})
				}
				if blocking[pc] {
					e := lockEdge{h.key, s.key, h.pc, pc}
					if j := slices.IndexFunc(edges, func(f lockEdge) bool { return f.k1 == e.k1 && f.k2 == e.k2 }); j >= 0 {
						edges[j] = e
					} else {
						edges = append(edges, e)
					}
				}
			}
			held, pend, unc := ss.counts(locks, si)
			if !s.classifiable {
				unc++
			}
			locks = ss.with(locks, si, held, pend+1, unc)

		case in.HasAnn(isa.AnnLockRelease):
			var ok bool
			if locks, ok = ss.release(locks, keyAt[pc]); !ok && !in.Guarded() {
				// Only report when the mismatch is provable: the released
				// address and every held key are precise.
				addr := it.addr(pc)
				precise := addr.globalConst(it.t)
				for i, h := range ss {
					if locks[2*i]+locks[2*i+1] > 0 && !h.addr.globalConst(it.t) {
						precise = false
					}
				}
				if precise {
					report(analysis.Finding{Program: p.Name, PC: pc,
						Category: analysis.CatUnlockWithoutLock,
						Message: fmt.Sprintf("release of lock [%s] on a path where it is not held",
							addr.describe(it.t))})
				}
			}

		case in.Op == isa.OpSetp:
			pcInfo := predCmp{}
			if !in.Guarded() {
				switch {
				case in.A.Kind == isa.OpdReg && in.B.Kind == isa.OpdImm:
					pcInfo = predCmp{valid: true, reg: in.A.Reg, k: int64(in.B.Imm), cmp: in.Cmp}
				case in.A.Kind == isa.OpdImm && in.B.Kind == isa.OpdReg:
					pcInfo = predCmp{valid: true, reg: in.B.Reg, k: int64(in.A.Imm), cmp: flipCmp(in.Cmp)}
				}
			}
			setps[in.PDst] = pcInfo

		case in.Op == isa.OpExit:
			for i, h := range ss {
				if locks[2*i] > 0 {
					report(analysis.Finding{Program: p.Name, PC: h.pc,
						Category: analysis.CatLockLeak,
						Message: fmt.Sprintf("lock [%s] acquired here is still held when the thread exits at pc %d",
							h.addr.describe(it.t), pc)})
				}
			}
			continue
		}

		for _, s := range g.Succ[pc] {
			el := locks
			if in.Op == isa.OpBra && in.Guarded() {
				// taken ⟺ guard predicate matches: @p → p true, @!p → p false.
				predTrue := (s == in.Target) != in.GuardNeg
				el = ss.classify(locks, setps[isa.Pred(in.Guard)], predTrue)
			}
			stack = append(stack, lockState{pc: s, locks: el, setps: setps})
		}
	}

	// Lock-order cycles: an edge k1→k2 (k2 acquired blocking while k1
	// held) participating in a cycle of the acquisition graph.
	reaches := func(from, to int32) bool {
		seenK := map[int32]bool{from: true}
		for q := []int32{from}; len(q) > 0; q = q[1:] {
			if q[0] == to {
				return true
			}
			for _, e := range edges {
				if e.k1 == q[0] && !seenK[e.k2] {
					seenK[e.k2] = true
					q = append(q, e.k2)
				}
			}
		}
		return false
	}
	for _, e := range edges {
		if reaches(e.k2, e.k1) {
			lo, hi := minMax(e.heldPC, e.acqPC)
			report(analysis.Finding{Program: p.Name, PC: lo, OtherPC: other(lo, hi),
				Category: analysis.CatLockOrder,
				Message: fmt.Sprintf("lock acquired at pc %d while the lock from pc %d is held, and the opposite order also occurs — AB/BA deadlock between blocking acquires",
					e.acqPC, e.heldPC)})
		}
	}
	return res
}

// hasLockAnn reports whether any instruction carries AnnLockAcquire or
// AnnLockRelease.
func hasLockAnn(p *isa.Program) bool {
	for pc := range p.Code {
		if p.Code[pc].HasAnn(isa.AnnLockAcquire | isa.AnnLockRelease) {
			return true
		}
	}
	return false
}

// blockingAcquires marks acquire PCs that can re-execute without any
// AnnLockRelease in between: a failed attempt spins rather than backing
// out, which is the precondition for an acquisition-order deadlock.
// Try-lock-with-backout (the ATM idiom) releases on the failure path and
// is exempt, and so is an acquire that is itself annotated as a release.
func blockingAcquires(p *isa.Program, g *analysis.CFG) []bool {
	out := make([]bool, g.N)
	isRel := func(v int32) bool { return v == g.N || p.At(v).HasAnn(isa.AnnLockRelease) }
	for pc := int32(0); pc < g.N; pc++ {
		if p.At(pc).HasAnn(isa.AnnLockAcquire) && !isRel(pc) {
			out[pc] = g.Walk(g.Succ[pc], false, isRel)[pc]
		}
	}
	return out
}

func minMax(a, b int32) (int32, int32) {
	if a <= b {
		return a, b
	}
	return b, a
}

// other returns hi as the pair's OtherPC, or 0 for a self-pair.
func other(lo, hi int32) int32 {
	if hi > lo {
		return hi
	}
	return 0
}

package race

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"warpsched/internal/analysis"
	"warpsched/internal/isa"
)

// heldLock is one lockset entry: an AnnLockAcquire site together with
// the abstract address it locked. An entry is pending until a branch on
// the acquire's result register proves the acquire succeeded on the
// current path (the atomicCAS spin idiom: cas; setp.eq p,old,0; @!p bra).
type heldLock struct {
	acqPC int32
	key   string
	addr  AbsVal

	pending      bool
	classifiable bool
	dst          isa.Reg // acquire result register
	succVal      int64   // dst value that means "lock taken"
}

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
	// mustHeld[pc]: locks held (resolved) on every path reaching pc.
	mustHeld map[int32][]heldLock
}

// lockState is one DFS configuration.
type lockState struct {
	pc    int32
	locks []heldLock
	setps [isa.NumPreds]predCmp
}

// maxLocksetsPerPC caps distinct locksets explored per program point;
// beyond it the point is saturated and its must-held set cleared (sound:
// fewer exemptions).
const maxLocksetsPerPC = 16

func (s *lockState) signature() string {
	if len(s.locks) == 0 {
		return ""
	}
	keys := make([]string, len(s.locks))
	for i, h := range s.locks {
		p := ":h:"
		if h.pending {
			p = ":p:"
		}
		keys[i] = strconv.Itoa(int(h.acqPC)) + p + h.key
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

func cloneLocks(ls []heldLock) []heldLock {
	out := make([]heldLock, len(ls))
	copy(out, ls)
	return out
}

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
	res.mustHeld = map[int32][]heldLock{}
	blocking := blockingAcquires(p, g)

	// Per-PC exploration bookkeeping.
	seen := make([]map[string]bool, g.N+1)
	saturated := make([]bool, g.N+1)
	haveMust := make([]bool, g.N+1)

	type lockEdge struct {
		from, to      string
		heldPC, acqPC int32
	}
	edges := map[string]lockEdge{}

	dedup := map[string]bool{}
	report := func(f analysis.Finding) {
		k := fmt.Sprintf("%s|%d|%d", f.Category, f.PC, f.OtherPC)
		if !dedup[k] {
			dedup[k] = true
			res.findings = append(res.findings, f)
		}
	}

	intersectMust := func(pc int32, locks []heldLock) {
		if saturated[pc] {
			return
		}
		var resolved []heldLock
		for _, h := range locks {
			if !h.pending {
				resolved = append(resolved, h)
			}
		}
		if !haveMust[pc] {
			haveMust[pc] = true
			res.mustHeld[pc] = cloneLocks(resolved)
			return
		}
		cur := res.mustHeld[pc]
		var kept []heldLock
		for _, h := range cur {
			for _, r := range resolved {
				if r.acqPC == h.acqPC && r.key == h.key {
					kept = append(kept, h)
					break
				}
			}
		}
		res.mustHeld[pc] = kept
	}

	stack := []lockState{{pc: 0}}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pc := st.pc

		if pc >= g.N { // virtual exit
			continue
		}
		if seen[pc] == nil {
			seen[pc] = map[string]bool{}
		}
		sig := st.signature()
		if seen[pc][sig] {
			continue
		}
		if len(seen[pc]) >= maxLocksetsPerPC {
			if !saturated[pc] {
				saturated[pc] = true
				haveMust[pc] = true
				res.mustHeld[pc] = nil
			}
			continue
		}
		seen[pc][sig] = true
		intersectMust(pc, st.locks)

		in := p.At(pc)
		locks := cloneLocks(st.locks)
		setps := st.setps

		// A write to an acquire's result register after the acquire makes
		// the success test unclassifiable on this path.
		if in.WritesReg() && !in.HasAnn(isa.AnnLockAcquire) {
			for i := range locks {
				if locks[i].pending && locks[i].classifiable && locks[i].dst == in.Dst {
					locks[i].classifiable = false
				}
			}
		}

		switch {
		case in.HasAnn(isa.AnnLockAcquire) && in.Op.IsAtomic():
			addr := it.addr(pc)
			key := addr.key(it.t)
			for _, h := range locks {
				if !h.pending && h.key == key && addr.globalConst(it.t) {
					lo, hi := minMax(h.acqPC, pc)
					report(analysis.Finding{Program: p.Name, PC: lo, OtherPC: other(lo, hi),
						Category: analysis.CatDoubleAcquire,
						Message: fmt.Sprintf("lock [%s] acquired at pc %d is still held when re-acquired at pc %d — self-deadlock on a non-reentrant lock",
							addr.describe(it.t), h.acqPC, pc)})
				}
				if !h.pending && blocking[pc] {
					e := lockEdge{from: h.key, to: key, heldPC: h.acqPC, acqPC: pc}
					edges[e.from+"->"+e.to] = e
				}
			}
			ent := heldLock{acqPC: pc, key: key, addr: addr, pending: true}
			switch in.Op {
			case isa.OpAtomCAS:
				if in.C.Kind == isa.OpdImm {
					ent.classifiable, ent.dst, ent.succVal = true, in.Dst, int64(in.C.Imm)
				}
			case isa.OpAtomExch:
				ent.classifiable, ent.dst, ent.succVal = true, in.Dst, 0
			}
			if in.Guarded() {
				ent.classifiable = false
			}
			locks = append(locks, ent)

		case in.HasAnn(isa.AnnLockRelease):
			addr := it.addr(pc)
			key := addr.key(it.t)
			matched := -1
			for i, h := range locks {
				if h.key == key {
					matched = i
					break
				}
			}
			if matched >= 0 {
				locks = append(locks[:matched], locks[matched+1:]...)
			} else if !in.Guarded() {
				// Only report when the mismatch is provable: the released
				// address and every held key are precise.
				precise := addr.globalConst(it.t)
				for _, h := range locks {
					if !h.addr.globalConst(it.t) {
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
			for _, h := range locks {
				if !h.pending {
					report(analysis.Finding{Program: p.Name, PC: h.acqPC,
						Category: analysis.CatLockLeak,
						Message: fmt.Sprintf("lock [%s] acquired here is still held when the thread exits at pc %d",
							h.addr.describe(it.t), pc)})
				}
			}
			continue
		}

		if in.Op == isa.OpBra && in.Guarded() {
			rel := setps[isa.Pred(in.Guard)]
			for _, s := range g.Succ[pc] {
				pval := s == in.Target // taken edge
				// taken ⟺ guard predicate matches: @p → p true, @!p → p false.
				predTrue := pval != in.GuardNeg
				el := cloneLocks(locks)
				el = classifyLocks(el, rel, predTrue)
				stack = append(stack, lockState{pc: s, locks: el, setps: setps})
			}
			continue
		}
		for _, s := range g.Succ[pc] {
			stack = append(stack, lockState{pc: s, locks: cloneLocks(locks), setps: setps})
		}
	}

	// Lock-order cycles: an edge k1→k2 (k2 acquired blocking while k1
	// held) participating in a cycle of the acquisition graph.
	adj := map[string][]string{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	reaches := func(from, to string) bool {
		seenK := map[string]bool{from: true}
		q := []string{from}
		for len(q) > 0 {
			v := q[0]
			q = q[1:]
			if v == to {
				return true
			}
			for _, w := range adj[v] {
				if !seenK[w] {
					seenK[w] = true
					q = append(q, w)
				}
			}
		}
		return false
	}
	for _, e := range edges {
		if reaches(e.to, e.from) {
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

// classifyLocks resolves pending acquires along a branch edge where the
// guard predicate is known to be predTrue and was defined by rel.
func classifyLocks(locks []heldLock, rel predCmp, predTrue bool) []heldLock {
	if !rel.valid || (rel.cmp != isa.EQ && rel.cmp != isa.NE) {
		return locks
	}
	out := locks[:0]
	for _, h := range locks {
		if h.pending && h.classifiable && h.dst == rel.reg {
			// Predicate is (dst cmp k); what do we learn about dst==succVal?
			eq := rel.cmp == isa.EQ
			switch {
			case rel.k == h.succVal && eq == predTrue:
				h.pending = false // dst == succVal: acquire succeeded
			case rel.k == h.succVal && eq != predTrue:
				continue // dst != succVal: acquire failed, drop
			case rel.k != h.succVal && eq && predTrue:
				continue // dst == k ≠ succVal: failed
			}
		}
		out = append(out, h)
	}
	return out
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

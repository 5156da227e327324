package analysis

import (
	"fmt"
	"sort"

	"warpsched/internal/isa"
)

// checkSyncDiscipline verifies the synchronization idioms the paper's
// kernels depend on (cf. Stuart & Owens, "Efficient Synchronization
// Primitives for GPUs"): lock acquires must be able to reach a release,
// spin-tested values must bypass the non-coherent L1, and CTA barriers
// must not sit under thread-divergent forward control flow.
func checkSyncDiscipline(g *CFG) []Finding {
	var fs []Finding
	fs = append(fs, checkLockPairing(g)...)
	fs = append(fs, checkSpinVolatile(g)...)
	fs = append(fs, checkDivergentBarrier(g)...)
	return fs
}

// checkLockPairing flags acquires from which no release is reachable
// (the lock could never be dropped: a guaranteed livelock for every other
// contender) and releases that no acquire can reach (releasing a lock
// that is never taken on any path — almost always a mis-annotation).
// The check is existential, not path-universal, because the canonical
// SIMT-deadlock-free idiom (Figure 1a) retries a failed atomicCAS
// acquire, so the acquire→release pairing only holds on the success arm.
func checkLockPairing(g *CFG) []Finding {
	p := g.Prog
	isRel := func(v int32) bool {
		return v < g.N && p.At(v).HasAnn(isa.AnnLockRelease)
	}
	isAcq := func(v int32) bool {
		return v < g.N && p.At(v).HasAnn(isa.AnnLockAcquire)
	}
	var fs []Finding
	for pc := int32(0); pc < g.N; pc++ {
		if !g.Reachable[pc] {
			continue
		}
		in := p.At(pc)
		if in.HasAnn(isa.AnnLockAcquire) && !g.anyReachable(pc, isRel) {
			fs = append(fs, Finding{Program: p.Name, PC: pc, Category: CatUnpairedAcquire,
				Message: "lock acquire with no reachable AnnLockRelease on any path"})
		}
		if in.HasAnn(isa.AnnLockRelease) && len(g.reachingStops(pc, isAcq)) == 0 {
			fs = append(fs, Finding{Program: p.Name, PC: pc, Category: CatUnpairedRelease,
				Message: "lock release that no AnnLockAcquire reaches on any path"})
		}
	}
	return fs
}

// checkSpinVolatile slices the guard predicate of every spin (a guarded
// backward AnnSync branch) and wait-check (AnnWaitCheck) branch back
// through setp and the ALU/mov/selp chain to the producing definitions.
// If the tested value is produced by a non-volatile load, the spin
// re-reads a potentially stale line from the non-coherent L1 and can
// livelock: the awaited word is by definition written by another thread,
// possibly on another SM. Volatile loads, atomics, ld.param and special
// registers (a clock-only delay loop) terminate the slice cleanly.
func checkSpinVolatile(g *CFG) []Finding {
	p := g.Prog
	var fs []Finding
	flagged := make(map[int32]bool) // def PCs already reported

	type useSite struct {
		pc  int32
		reg isa.Reg
	}
	for pc := int32(0); pc < g.N; pc++ {
		in := p.At(pc)
		if !g.Reachable[pc] || in.Op != isa.OpBra || !in.Guarded() {
			continue
		}
		if !(in.HasAnn(isa.AnnSync) && in.Target <= pc) && !in.HasAnn(isa.AnnWaitCheck) {
			continue
		}
		guard := isa.Pred(in.Guard)
		setps := g.reachingStops(pc, func(v int32) bool {
			return v < g.N && p.At(v).Op == isa.OpSetp && p.At(v).PDst == guard
		})
		var work []useSite
		seen := make(map[useSite]bool)
		push := func(at int32, i *isa.Instr) {
			for _, o := range [...]isa.Operand{i.A, i.B, i.C, i.D} {
				if o.Kind != isa.OpdReg {
					continue
				}
				u := useSite{at, o.Reg}
				if !seen[u] {
					seen[u] = true
					work = append(work, u)
				}
			}
		}
		for _, s := range setps {
			push(s, p.At(s))
		}
		for len(work) > 0 {
			u := work[len(work)-1]
			work = work[:len(work)-1]
			defs := g.reachingStops(u.pc, func(v int32) bool {
				return v < g.N && p.At(v).WritesReg() && p.At(v).Dst == u.reg
			})
			for _, d := range defs {
				di := p.At(d)
				switch di.Op {
				case isa.OpLd:
					if !di.Vol && !flagged[d] {
						flagged[d] = true
						fs = append(fs, Finding{Program: p.Name, PC: d, Category: CatSpinLoadNotVolatile,
							Message: fmt.Sprintf("non-volatile load feeds the spin test of the branch at pc %d; the awaited word must bypass the L1 (ld.volatile)", pc)})
					}
				case isa.OpMov, isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem,
					isa.OpMin, isa.OpMax, isa.OpAnd, isa.OpOr, isa.OpXor,
					isa.OpShl, isa.OpShr, isa.OpSelp:
					push(d, di)
				}
				// Atomics and ld.param terminate the slice: atomics are
				// L1-bypassing by construction, parameters are constant.
			}
		}
	}
	return fs
}

// checkDivergentBarrier flags bar.sync instructions that can execute
// while the warp is diverged on a thread-varying forward branch — the
// classic barrier-in-one-arm-of-an-if deadlock — and barriers directly
// guarded by a varying predicate. Backward (loop) branches are exempt
// even when thread-varying: lanes leaving a loop early wait at the
// reconvergence point and exited threads are released from the barrier
// count, which the TB kernel's barrier-throttled retry loop (and real
// pre-Volta hardware) relies on.
func checkDivergentBarrier(g *CFG) []Finding {
	p := g.Prog

	// Any barriers at all? (Most sync kernels have none.)
	hasBar := false
	for pc := int32(0); pc < g.N; pc++ {
		if p.At(pc).Op == isa.OpBar {
			hasBar = true
			break
		}
	}
	if !hasBar {
		return nil
	}

	_, varyP, _ := VaryingSets(g, false)
	// Union of divergent regions of thread-varying forward branches,
	// remembering one responsible branch per node for the message.
	owner := make([]int32, g.N+1)
	for i := range owner {
		owner[i] = -1
	}
	for pc := int32(0); pc < g.N; pc++ {
		in := p.At(pc)
		if in.Op != isa.OpBra || !in.Guarded() || in.Target <= pc {
			continue
		}
		if varyP&(1<<uint8(in.Guard)) == 0 {
			continue
		}
		for v, inRegion := range g.DivergentRegion(pc) {
			if inRegion && owner[v] < 0 {
				owner[v] = pc
			}
		}
	}

	var fs []Finding
	for pc := int32(0); pc < g.N; pc++ {
		in := p.At(pc)
		if in.Op != isa.OpBar || !g.Reachable[pc] {
			continue
		}
		switch {
		case in.Guarded() && varyP&(1<<uint8(in.Guard)) != 0:
			fs = append(fs, Finding{Program: p.Name, PC: pc, Category: CatDivergentBarrier,
				Message: fmt.Sprintf("bar.sync guarded by thread-varying predicate %%p%d", in.Guard)})
		case owner[pc] >= 0:
			fs = append(fs, Finding{Program: p.Name, PC: pc, Category: CatDivergentBarrier,
				Message: fmt.Sprintf("bar.sync inside the divergent region of the thread-varying forward branch at pc %d", owner[pc])})
		}
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].PC < fs[j].PC })
	return fs
}

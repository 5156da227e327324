package analysis

import (
	"fmt"

	"warpsched/internal/isa"
)

// Register and predicate sets are bitmasks: NumRegs = 64 fits a uint64
// exactly, NumPreds = 8 fits a uint8.

// srcRegMask returns the set of GPRs read by the instruction.
func srcRegMask(in *isa.Instr) uint64 {
	var m uint64
	for _, o := range [...]isa.Operand{in.A, in.B, in.C, in.D} {
		if o.Kind == isa.OpdReg {
			m |= 1 << o.Reg
		}
	}
	return m
}

// predUseMask returns the set of predicates read by the instruction: the
// guard of any guarded instruction, selp's source predicate, and the
// guard of a conditional branch.
func predUseMask(in *isa.Instr) uint8 {
	var m uint8
	if in.Guarded() {
		m |= 1 << uint8(in.Guard)
	}
	if in.Op == isa.OpSelp {
		m |= 1 << in.PSrc
	}
	return m
}

// checkNeverWritten flags GPRs that are read somewhere but written
// nowhere in the whole program — there is no path on which the read
// could observe a defined value.
func checkNeverWritten(g *CFG) []Finding {
	p := g.Prog
	var written, read uint64
	firstRead := make(map[isa.Reg]int32)
	for pc := int32(0); pc < g.N; pc++ {
		in := p.At(pc)
		if m := srcRegMask(in); m != 0 {
			read |= m
			for r := isa.Reg(0); int(r) < isa.NumRegs; r++ {
				if m&(1<<r) != 0 {
					if _, ok := firstRead[r]; !ok {
						firstRead[r] = pc
					}
				}
			}
		}
		if in.WritesReg() {
			written |= 1 << in.Dst
		}
	}
	var fs []Finding
	for r := isa.Reg(0); int(r) < isa.NumRegs; r++ {
		if read&(1<<r) != 0 && written&(1<<r) == 0 {
			fs = append(fs, Finding{Program: p.Name, PC: firstRead[r], Category: CatUninitReg,
				Message: fmt.Sprintf("%%r%d is read but never written anywhere in the program", r)})
		}
	}
	return fs
}

// checkPredDefiniteAssignment runs a forward must-be-assigned dataflow
// over predicates (meet = intersection over predecessors) and flags every
// use — guard or selp source — of a predicate that is not defined by an
// unguarded setp on every path from entry. A guarded setp writes only the
// lanes whose guard holds, so it does not definitely assign.
func checkPredDefiniteAssignment(g *CFG) []Finding {
	p := g.Prog
	n := int(g.N)
	const all = ^uint8(0)
	out := make([]uint8, n+1)
	for i := range out {
		out[i] = all // optimistic init for the intersection meet
	}
	in := make([]uint8, n+1)
	for changed := true; changed; {
		changed = false
		for pc := 0; pc <= n; pc++ {
			if !g.Reachable[pc] {
				continue
			}
			iv := all
			if pc == 0 {
				iv = 0 // nothing assigned at entry
			} else {
				for _, pr := range g.Pred[pc] {
					if g.Reachable[pr] {
						iv &= out[pr]
					}
				}
			}
			ov := iv
			if pc < n {
				i := p.At(int32(pc))
				if i.Op == isa.OpSetp && !i.Guarded() {
					ov |= 1 << i.PDst
				}
			}
			if iv != in[pc] || ov != out[pc] {
				in[pc], out[pc] = iv, ov
				changed = true
			}
		}
	}
	var fs []Finding
	for pc := int32(0); pc < g.N; pc++ {
		if !g.Reachable[pc] {
			continue
		}
		i := p.At(pc)
		if missing := predUseMask(i) &^ in[pc]; missing != 0 {
			for pr := 0; pr < isa.NumPreds; pr++ {
				if missing&(1<<pr) != 0 {
					fs = append(fs, Finding{Program: p.Name, PC: pc, Category: CatUninitPred,
						Message: fmt.Sprintf("%%p%d may be used before any unguarded setp defines it", pr)})
				}
			}
		}
	}
	return fs
}

// checkDeadWrites runs backward liveness over GPRs and predicates and
// flags writes whose value can never be observed. Memory operations
// (loads, atomics) are exempt from reporting: in a timing simulator a
// load with an unused destination is still a deliberate memory access
// (e.g. the tree-walk touches in the TB kernel). Guarded writes do not
// kill liveness — lanes with a false guard keep the old value.
func checkDeadWrites(g *CFG) []Finding {
	p := g.Prog
	liveR, liveP := liveness(g)
	var fs []Finding
	for pc := int32(0); pc < g.N; pc++ {
		if !g.Reachable[pc] {
			continue
		}
		i := p.At(pc)
		var outR uint64
		var outP uint8
		for _, s := range g.Succ[pc] {
			outR |= liveR[s]
			outP |= liveP[s]
		}
		if i.WritesReg() && !i.Op.IsMem() && outR&(1<<i.Dst) == 0 {
			fs = append(fs, Finding{Program: p.Name, PC: pc, Category: CatDeadWrite,
				Message: fmt.Sprintf("%%r%d is written here but never read afterwards", i.Dst)})
		}
		if i.Op == isa.OpSetp && outP&(1<<i.PDst) == 0 {
			fs = append(fs, Finding{Program: p.Name, PC: pc, Category: CatDeadWrite,
				Message: fmt.Sprintf("%%p%d is set here but never used afterwards", i.PDst)})
		}
	}
	return fs
}

// liveness runs backward liveness over GPRs and predicates, returning
// live-in sets per node (index N is the virtual exit, always empty).
func liveness(g *CFG) (liveR []uint64, liveP []uint8) {
	p := g.Prog
	n := int(g.N)
	liveR = make([]uint64, n+1)
	liveP = make([]uint8, n+1)
	for changed := true; changed; {
		changed = false
		for pc := n - 1; pc >= 0; pc-- {
			var outR uint64
			var outP uint8
			for _, s := range g.Succ[pc] {
				outR |= liveR[s]
				outP |= liveP[s]
			}
			i := p.At(int32(pc))
			inR, inP := outR, outP
			if !i.Guarded() {
				if i.WritesReg() {
					inR &^= 1 << i.Dst
				}
				if i.Op == isa.OpSetp {
					inP &^= 1 << i.PDst
				}
			}
			inR |= srcRegMask(i)
			inP |= predUseMask(i)
			if inR != liveR[pc] || inP != liveP[pc] {
				liveR[pc], liveP[pc] = inR, inP
				changed = true
			}
		}
	}
	return liveR, liveP
}

// DeadLoadDests reports, per PC, the loads whose destination register is
// never read on any path — deliberate "touch" loads issued only for
// their memory-timing side effect (e.g. the TB tree walk). The race
// analyzer exempts them from read/write pairing.
func DeadLoadDests(g *CFG) []bool {
	liveR, _ := liveness(g)
	out := make([]bool, g.N)
	for pc := int32(0); pc < g.N; pc++ {
		in := g.Prog.At(pc)
		if in.Op != isa.OpLd {
			continue
		}
		var outR uint64
		for _, s := range g.Succ[pc] {
			outR |= liveR[s]
		}
		out[pc] = outR&(1<<in.Dst) == 0
	}
	return out
}

// VaryingSets computes a conservative CTA-level divergence analysis: a
// register/predicate is "varying" if threads of one CTA may hold
// different values for it. Sources of variance are the thread-indexed
// special registers (%tid, %laneid, %warpid, %gtid, %clock), every memory
// read (another thread may have written the word), and any definition
// under divergent control flow (inside the divergent region of a branch
// whose guard is varying, or itself guarded by a varying predicate).
// %ntid, %nctaid, %ctaid and %smid are uniform across a CTA, which is
// the granularity that matters for bar.sync. The analysis is
// flow-insensitive (one bit per register) and iterates to a fixpoint
// because control dependence feeds back into data dependence.
//
// threadOnly narrows the sources to values derived from the thread's
// identity, for the race package's barrier-reachability check: %clock
// counts as uniform, and a load varies only when its address does. A
// load from a uniform address (the BFS frontier flag, a producer/
// consumer mailbox) yields the same word to every thread issuing it at
// that moment, so branching on it cannot split the CTA's warps across
// different barriers, whereas tid-indexed data can. Atomics vary either
// way: each thread receives a distinct old value.
//
// divergent marks the nodes inside the divergent region of some guarded
// branch whose guard is varying in the final predicate set.
func VaryingSets(g *CFG, threadOnly bool) (regs uint64, preds uint8, divergent []bool) {
	p := g.Prog
	var varyR uint64
	var varyP uint8

	specVarying := func(s isa.Special) bool {
		switch s {
		case isa.SpecTID, isa.SpecLaneID, isa.SpecWarpID, isa.SpecGTID:
			return true
		}
		return s == isa.SpecClock && !threadOnly
	}
	opdVarying := func(o isa.Operand) bool {
		switch o.Kind {
		case isa.OpdReg:
			return varyR&(1<<o.Reg) != 0
		case isa.OpdSpecial:
			return specVarying(o.Spec)
		}
		return false
	}

	for {
		// Nodes under divergent control: the divergent region of every
		// guarded branch whose guard is currently varying.
		divergent = make([]bool, g.N+1)
		for pc := int32(0); pc < g.N; pc++ {
			in := p.At(pc)
			if in.Op != isa.OpBra || !in.Guarded() || varyP&(1<<uint8(in.Guard)) == 0 {
				continue
			}
			for v, inRegion := range g.DivergentRegion(pc) {
				if inRegion {
					divergent[v] = true
				}
			}
		}
		changed := false
		for pc := int32(0); pc < g.N; pc++ {
			in := p.At(pc)
			v := divergent[pc] || (in.Guarded() && varyP&(1<<uint8(in.Guard)) != 0)
			if !v {
				switch {
				case in.Op == isa.OpLd && threadOnly:
					v = opdVarying(in.A) || opdVarying(in.B)
				case in.Op.IsMem(): // loads and atomics produce varying values
					v = true
				case in.Op == isa.OpLdParam:
					v = false
				case in.Op == isa.OpSelp:
					v = opdVarying(in.A) || opdVarying(in.B) || varyP&(1<<in.PSrc) != 0
				default:
					v = opdVarying(in.A) || opdVarying(in.B) || opdVarying(in.C) || opdVarying(in.D)
				}
			}
			if !v {
				continue
			}
			if in.WritesReg() && varyR&(1<<in.Dst) == 0 {
				varyR |= 1 << in.Dst
				changed = true
			}
			if in.Op == isa.OpSetp && varyP&(1<<in.PDst) == 0 {
				varyP |= 1 << in.PDst
				changed = true
			}
		}
		if !changed {
			return varyR, varyP, divergent
		}
	}
}

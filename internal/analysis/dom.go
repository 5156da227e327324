package analysis

import (
	"fmt"

	"warpsched/internal/isa"
)

// Dominators returns the immediate dominator of every node (length N+1),
// computed from the entry node. idom[0] = 0; nodes unreachable from entry
// have idom -1.
func (g *CFG) Dominators() []int32 {
	return computeIdom(int(g.N)+1, 0, g.Succ, g.Pred)
}

// PostDominators returns the immediate post-dominator of every node
// (length N+1), computed from the virtual exit over the reversed graph.
// ipdom[Exit] = Exit; nodes from which the exit is unreachable (pure
// infinite loops) have ipdom -1.
func (g *CFG) PostDominators() []int32 {
	return computeIdom(int(g.N)+1, g.N, g.Pred, g.Succ)
}

// computeIdom is the iterative dominator algorithm of Cooper, Harvey and
// Kennedy ("A Simple, Fast Dominance Algorithm") over an arbitrary graph:
// out[v] are the edges followed from root, in[v] their reverses. Programs
// are at most a few hundred instructions, so the O(N²) worst case is
// irrelevant and the simple algorithm wins on clarity.
func computeIdom(n int, root int32, out, in [][]int32) []int32 {
	// Reverse postorder from root.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make([]uint8, n)
	postIdx := make([]int32, n) // node -> postorder number, -1 if unreached
	for i := range postIdx {
		postIdx[i] = -1
	}
	var order []int32 // postorder
	type frame struct {
		v int32
		i int
	}
	stack := []frame{{root, 0}}
	state[root] = gray
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(out[f.v]) {
			s := out[f.v][f.i]
			f.i++
			if state[s] == white {
				state[s] = gray
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		state[f.v] = black
		postIdx[f.v] = int32(len(order))
		order = append(order, f.v)
		stack = stack[:len(stack)-1]
	}

	idom := make([]int32, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root

	intersect := func(a, b int32) int32 {
		for a != b {
			for postIdx[a] < postIdx[b] {
				a = idom[a]
			}
			for postIdx[b] < postIdx[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		// Reverse postorder = order reversed.
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			if v == root {
				continue
			}
			var newIdom int32 = -1
			for _, p := range in[v] {
				if postIdx[p] < 0 || idom[p] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && idom[v] != newIdom {
				idom[v] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// checkCFG verifies the structural branch properties the SIMT stack
// relies on: every guarded branch reconverges exactly at its immediate
// post-dominator, and all code is reachable.
func checkCFG(g *CFG) []Finding {
	p := g.Prog
	var fs []Finding
	add := func(pc int32, cat Category, format string, args ...any) {
		fs = append(fs, Finding{Program: p.Name, PC: pc, Category: cat,
			Message: fmt.Sprintf(format, args...)})
	}

	ipdom := g.PostDominators()
	for pc := int32(0); pc < g.N; pc++ {
		in := p.At(pc)
		if !g.Reachable[pc] || in.Op != isa.OpBra || !in.Guarded() {
			continue
		}
		switch {
		case ipdom[pc] < 0:
			add(pc, CatNoExitPath,
				"divergent branch cannot reach program exit; reconvergence undefined")
		case ipdom[pc] != in.Reconv:
			add(pc, CatReconvMismatch,
				"reconvergence PC %d, but the branch's immediate post-dominator is %d",
				in.Reconv, ipdom[pc])
		}
	}

	// Unreachable code, one finding per maximal run.
	for pc := int32(0); pc < g.N; pc++ {
		if g.Reachable[pc] {
			continue
		}
		end := pc
		for end+1 < g.N && !g.Reachable[end+1] {
			end++
		}
		if end > pc {
			add(pc, CatUnreachable, "instructions %d..%d are unreachable", pc, end)
		} else {
			add(pc, CatUnreachable, "instruction is unreachable")
		}
		pc = end
	}
	return fs
}

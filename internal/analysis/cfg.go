package analysis

import "warpsched/internal/isa"

// CFG is an instruction-granularity control-flow graph of a program. Node
// i (0 ≤ i < N) is the instruction at PC i; node N is a virtual exit that
// OpExit, fall-through past the last instruction, and reconvergence PCs
// one past the end all flow into. Instruction granularity (rather than
// basic blocks) keeps the IPDOM of a branch directly comparable to its
// Reconv field: both are PCs.
//
// Guards on non-branch instructions predicate lanes, not control flow, so
// they contribute no edges; only OpBra and OpExit shape the graph.
type CFG struct {
	Prog *isa.Program
	// N is the instruction count; the virtual exit node is N.
	N int32
	// Succ and Pred have length N+1; Succ[N] is empty.
	Succ [][]int32
	Pred [][]int32
	// Reachable[i] reports whether node i is reachable from entry (PC 0).
	Reachable []bool
}

// Exit returns the virtual exit node id.
func (g *CFG) Exit() int32 { return g.N }

// BuildCFG constructs the CFG of a validated program.
func BuildCFG(p *isa.Program) *CFG {
	n := p.Len()
	g := &CFG{
		Prog: p,
		N:    n,
		Succ: make([][]int32, n+1),
		Pred: make([][]int32, n+1),
	}
	for pc := int32(0); pc < n; pc++ {
		in := p.At(pc)
		switch {
		case in.Op == isa.OpExit:
			g.addEdge(pc, n)
		case in.Op == isa.OpBra && !in.Guarded():
			g.addEdge(pc, in.Target)
		case in.Op == isa.OpBra:
			g.addEdge(pc, in.Target)
			if in.Target != pc+1 {
				g.addEdge(pc, pc+1)
			}
		default:
			g.addEdge(pc, pc+1)
		}
	}
	g.Reachable = g.Walk([]int32{0}, false, nil)
	return g
}

func (g *CFG) addEdge(from, to int32) {
	g.Succ[from] = append(g.Succ[from], to)
	g.Pred[to] = append(g.Pred[to], from)
}

// Walk marks every node reachable from seeds along Succ edges, or along
// Pred edges when back is set, and returns the marks indexed by node (the
// virtual exit included). Seeds are marked. A node for which stop returns
// true is marked but not expanded; a nil stop expands every node. Every
// reachability question both analyzers ask is one Walk.
func (g *CFG) Walk(seeds []int32, back bool, stop func(int32) bool) []bool {
	adj := g.Succ
	if back {
		adj = g.Pred
	}
	seen := make([]bool, g.N+1)
	stack := make([]int32, 0, len(seeds))
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if stop != nil && stop(v) {
			continue
		}
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// DivergentRegion returns the set of nodes executed while the warp may be
// diverged on the guarded branch at pc: every node reachable from a
// successor of the branch without passing through its reconvergence PC.
// The result is nil for unguarded branches and non-branches.
func (g *CFG) DivergentRegion(pc int32) []bool {
	in := g.Prog.At(pc)
	if in.Op != isa.OpBra || !in.Guarded() || in.Reconv == isa.NoReconv {
		return nil
	}
	region := g.Walk(g.Succ[pc], false, func(v int32) bool { return v == in.Reconv })
	region[in.Reconv] = false
	return region
}

// reachingStops walks the CFG backward from the predecessors of `from`
// and returns, in PC order, every node satisfying stop that is reachable
// without passing through an earlier stop node — i.e. the "nearest
// definitions" along each backward path. Used by the dataflow slices.
func (g *CFG) reachingStops(from int32, stop func(int32) bool) []int32 {
	var out []int32
	for v, m := range g.Walk(g.Pred[from], true, stop) {
		if m && stop(int32(v)) {
			out = append(out, int32(v))
		}
	}
	return out
}

// anyReachable reports whether a node satisfying want is reachable from
// pc by following successor edges (pc itself is not tested).
func (g *CFG) anyReachable(pc int32, want func(int32) bool) bool {
	for v, m := range g.Walk(g.Succ[pc], false, want) {
		if m && want(int32(v)) {
			return true
		}
	}
	return false
}

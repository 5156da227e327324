package race

import (
	"fmt"
	"slices"

	"warpsched/internal/analysis"
	"warpsched/internal/isa"
)

// intervals captures barrier-interval co-membership: two same-CTA
// accesses can only race if some execution places them between the same
// pair of adjacent bar.syncs. Interval starts are the program entry and
// every successor of a bar; an access belongs to the interval of start s
// when it is reachable from s without crossing another bar.
type intervals struct {
	member [][]bool // member[k][pc]
}

func buildIntervals(p *isa.Program, g *analysis.CFG) *intervals {
	isBar := barAt(p, g)
	var starts []int32
	seenStart := make(map[int32]bool)
	addStart := func(v int32) {
		if v < g.N && !seenStart[v] {
			seenStart[v] = true
			starts = append(starts, v)
		}
	}
	addStart(0)
	for pc := int32(0); pc < g.N; pc++ {
		if isBar(pc) {
			for _, s := range g.Succ[pc] {
				addStart(s)
			}
		}
	}
	iv := &intervals{}
	for _, s := range starts {
		iv.member = append(iv.member, g.Walk([]int32{s}, false, isBar))
	}
	return iv
}

// barAt returns the predicate "node v is a bar.sync" (the virtual exit
// is not), the stop of every barrier-bounded walk.
func barAt(p *isa.Program, g *analysis.CFG) func(int32) bool {
	return func(v int32) bool { return v < g.N && p.At(v).Op == isa.OpBar }
}

// same reports whether some barrier interval contains both PCs.
func (iv *intervals) same(u, v int32) bool {
	for _, m := range iv.member {
		if m[u] && m[v] {
			return true
		}
	}
	return false
}

// firstBars lists, in PC order, the bar.sync PCs reachable from start
// without crossing another bar — the "next barriers" on that edge.
func firstBars(p *isa.Program, g *analysis.CFG, start int32) []int32 {
	isBar := barAt(p, g)
	var out []int32
	for v, m := range g.Walk([]int32{start}, false, isBar) {
		if m && isBar(int32(v)) {
			out = append(out, int32(v))
		}
	}
	return out
}

// checkBarrierReachability flags forward branches whose guard is derived
// from the thread's identity and whose two edges proceed to *different*
// next barriers: threads of one CTA then arrive at bar.syncs of distinct
// program phases in the same dynamic round, silently pairing mismatched
// phases (or, with a spin on the far side, deadlocking the CTA). An edge
// whose barrier set is empty is exempt — threads that exit are released
// from the barrier count, so skipping straight to exit cannot wedge the
// others. Backward branches are exempt for the same reason as in the
// divergent-barrier check: loop-exit lanes wait at reconvergence.
func checkBarrierReachability(p *isa.Program, g *analysis.CFG) []analysis.Finding {
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
	_, varyP, _ := analysis.VaryingSets(g, true)
	var fs []analysis.Finding
	for pc := int32(0); pc < g.N; pc++ {
		in := p.At(pc)
		if in.Op != isa.OpBra || !in.Guarded() || in.Target <= pc || !g.Reachable[pc] {
			continue
		}
		if varyP&(1<<uint8(in.Guard)) == 0 {
			continue
		}
		taken := firstBars(p, g, in.Target)
		fall := firstBars(p, g, pc+1)
		if len(taken) == 0 || len(fall) == 0 || slices.Equal(taken, fall) {
			continue
		}
		fs = append(fs, analysis.Finding{
			Program: p.Name, PC: pc, Category: analysis.CatBarrierDeadlock,
			Message: fmt.Sprintf(
				"thread-dependent branch: the taken edge next reaches bar.sync at %s but the fall-through reaches %s; threads of one CTA would pair barriers of different phases",
				barList(taken), barList(fall)),
		})
	}
	return fs
}

func barList(bars []int32) string {
	s := fmt.Sprintf("pc %d", bars[0])
	if len(bars) > 1 {
		s += fmt.Sprintf(" (+%d more)", len(bars)-1)
	}
	return s
}

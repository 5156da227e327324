package race

import (
	"warpsched/internal/analysis"
	"warpsched/internal/isa"
)

// Instantiations analyzes p and returns how many prover instantiations
// the pair stage built.
func Instantiations(p *isa.Program, opt Options) int {
	_, n := analyze(p, opt, nil)
	return n
}

// Disjoint is the set of access pairs, keyed [lowPC, highPC], that the
// prover claims can never touch the same word: from two threads of one
// barrier interval (SameCTA) or of two CTAs (CrossCTA).
type Disjoint struct {
	SameCTA, CrossCTA map[[2]int32]bool
}

// AnalyzeDisjoint is Analyze, also returning the pairs the prover
// proved disjoint.
func AnalyzeDisjoint(p *isa.Program, opt Options) (*analysis.Report, Disjoint) {
	d := Disjoint{SameCTA: map[[2]int32]bool{}, CrossCTA: map[[2]int32]bool{}}
	rep, _ := analyze(p, opt, func(pc1, pc2 int32, sameCTA bool) {
		if sameCTA {
			d.SameCTA[[2]int32{pc1, pc2}] = true
		} else {
			d.CrossCTA[[2]int32{pc1, pc2}] = true
		}
	})
	return rep, d
}

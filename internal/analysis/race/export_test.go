package race

import "warpsched/internal/isa"

// Instantiations analyzes p and returns how many prover instantiations
// the pair stage built.
func Instantiations(p *isa.Program, opt Options) int {
	_, n := analyze(p, opt)
	return n
}

package analysis

import (
	"warpsched/internal/isa"
)

// suppressed reports whether finding f is silenced: anchored at an
// instruction whose !nolint annotation matches the finding's category or
// class. Pair findings (OtherPC > 0) are silenced when either endpoint
// carries a matching nolint — suppressing one access of a race
// suppresses the pair.
func suppressed(p *isa.Program, f Finding) bool {
	match := func(pc int32) bool {
		return pc >= 0 && pc < p.Len() &&
			p.At(pc).Suppresses(string(f.Category), f.Category.Class())
	}
	return match(f.PC) || (f.OtherPC > 0 && match(f.OtherPC))
}

// BuildReport splits findings into Findings and Suppressed according to
// per-instruction nolint annotations, fills each finding's Class
// from its category, and sorts for deterministic output. Shared by the
// core passes and internal/analysis/race.
func BuildReport(p *isa.Program, all []Finding) *Report {
	rep := &Report{Program: p.Name}
	sortFindings(all)
	for _, f := range all {
		f.Class = f.Category.Class()
		if suppressed(p, f) {
			rep.Suppressed = append(rep.Suppressed, f)
		} else {
			rep.Findings = append(rep.Findings, f)
		}
	}
	return rep
}

// Analyze runs every pass over the program: structural validation,
// CFG/IPDOM reconvergence verification, def-use dataflow lints and the
// synchronization-discipline checks. Findings at instructions annotated
// AnnNoLint are reported under Suppressed.
func Analyze(p *isa.Program) *Report {
	if err := p.Validate(); err != nil {
		// Structural invariants are broken; the CFG passes would index
		// out of range, so report and stop.
		return &Report{Program: p.Name, Findings: []Finding{{
			Program:  p.Name,
			PC:       -1,
			Category: CatInvalid,
			Class:    CatInvalid.Class(),
			Message:  err.Error(),
		}}}
	}
	g := BuildCFG(p)

	var all []Finding
	all = append(all, checkCFG(g)...)
	all = append(all, checkNeverWritten(g)...)
	all = append(all, checkPredDefiniteAssignment(g)...)
	all = append(all, checkDeadWrites(g)...)
	all = append(all, checkSyncDiscipline(g)...)
	return BuildReport(p, all)
}

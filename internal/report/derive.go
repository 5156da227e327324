package report

import (
	"sort"

	"warpsched/internal/exp"
)

// deriveAll fills the report's sections from the joined set, skipping
// experiments that are absent entirely (a -quick fig9-only manifest still
// renders a fig9-only document). The sections, their layouts and their
// derivations are internal/exp's — the same ones cmd/experiments prints —
// so this file is only the manifest side of the lookup.
func (r *Report) deriveAll() error {
	s := r.set
	for _, e := range s.Experiments() {
		var err error
		switch e {
		case "fig9":
			r.Fig9, err = deriveBars(s, e)
		case "fig15":
			r.Fig15, err = deriveBars(s, e)
		case "delaysweep":
			r.Delay, err = derive(s, e, exp.DelayLayout(), exp.DeriveDelay)
		case "fig14":
			r.Fig14, err = derive(s, e, exp.Fig14Layout(), exp.DeriveFig14)
		case "table1":
			r.Table1, err = derive(s, e, exp.Table1Columns(), exp.DeriveTable1)
		case "ablation":
			r.Ablation, err = derive(s, e, exp.AblationLayout(), exp.DeriveAblation)
		default:
			// Other experiments (fig1-3, fig16, tables 2-3) publish
			// through their own harness output; the report has no
			// section for them.
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// derive looks up experiment tag's kernels × cols run matrix — kernels
// sorted, the deterministic row order of every table — by joining each
// column's scheduler, BOWS and detector descriptors against the manifest
// records, and hands it to the section's derivation. A run the layout
// needs but the manifests lack is a *MissingRunError.
func derive[S any](s *Set, tag string, cols []exp.Column, f func([]string, []exp.Column, [][]exp.Run) S) (S, error) {
	var none S
	seen := map[string]bool{}
	var kernels []string
	for _, r := range s.Runs(tag) {
		if !seen[r.Kernel] {
			seen[r.Kernel] = true
			kernels = append(kernels, r.Kernel)
		}
	}
	sort.Strings(kernels)
	runs := make([][]exp.Run, len(kernels))
	for ki, k := range kernels {
		for _, col := range cols {
			rec, err := s.FindDDOS(tag, k, string(col.Sched), col.BOWS.Desc(), col.DetectorDesc())
			if err != nil {
				return none, err
			}
			run, err := exp.RunOfRecord(rec)
			if err != nil {
				return none, err
			}
			runs[ki] = append(runs[ki], run)
		}
	}
	return f(kernels, cols, runs), nil
}

func deriveBars(s *Set, tag string) (*exp.BarsSection, error) {
	return derive(s, tag, exp.BarsLayout(), func(kernels []string, cols []exp.Column, runs [][]exp.Run) *exp.BarsSection {
		return exp.DeriveBars(tag, kernels, cols, runs)
	})
}

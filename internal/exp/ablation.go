package exp

import (
	"warpsched/internal/config"
)

// AblationSection is the derived BOWS component study, which the paper
// motivates but does not tabulate: normalized execution time per arm,
// GTO = 1.
type AblationSection struct {
	// Kernels lists the benchmarks in the caller's order.
	Kernels []string
	// Columns are the arm labels from AblationLayout.
	Columns []string
	// Time[kernel] follows Columns, normalized to the GTO arm.
	Time map[string][]Bar
	// Gmean is the per-column geometric mean.
	Gmean []float64
}

// AblationLayout returns the ablation arms (on GTO, Fermi) in display
// order: baseline GTO, deprioritization only (zero delay limit), a fixed
// 1000-cycle minimum interval, the full adaptive system, and adaptive
// BOWS driven by oracle static annotations instead of DDOS (the paper's
// "identified by programmer or compiler" mode, which bounds the cost of
// dynamic detection).
func AblationLayout() []Column {
	static := config.DefaultBOWS()
	static.Mode = config.BOWSStatic
	var cols []Column
	for _, arm := range []struct {
		label string
		bows  config.BOWS
	}{
		{"GTO", bowsOff()},
		{"deprioritize-only", config.FixedBOWS(0)},
		{"fixed-1000", config.FixedBOWS(1000)},
		{"adaptive(DDOS)", config.DefaultBOWS()},
		{"adaptive(static)", static},
	} {
		cols = append(cols, Column{arm.label, Spec{Sched: config.GTO, BOWS: arm.bows, DDOS: config.DefaultDDOS()}})
	}
	return cols
}

// Ablation runs the component study on GTO.
func Ablation(c Cfg) (*AblationSection, error) {
	cols := AblationLayout()
	kernels, runs, err := c.sweep(c.fermi(), c.syncSuite(), cols, false)
	if err != nil {
		return nil, err
	}
	return DeriveAblation(kernels, cols, runs), nil
}

// DeriveAblation derives the component study from an AblationLayout run
// matrix.
func DeriveAblation(kernels []string, cols []Column, runs [][]Run) *AblationSection {
	sec := &AblationSection{Kernels: kernels, Columns: labels(cols)}
	sec.Time, sec.Gmean = normalize(kernels, len(cols), runs, cycles)
	return sec
}

// Tables lays out the ablation table.
func (s *AblationSection) Tables() []Table {
	t := barTable("Ablation — BOWS component contributions (normalized execution time on GTO, Fermi; GTO = 1.00)",
		s.Kernels, s.Columns, s.Time, s.Gmean)
	t.Note = []string{
		"reading: deprioritize-only isolates the priority-queue change; fixed-1000 adds the minimum interval;",
		"adaptive(static) bounds what a compiler-annotated BOWS could do over DDOS-driven detection",
	}
	t.Figure = "ablation.svg"
	return []Table{t}
}

// String renders the section's table in the harness's text format.
func (s *AblationSection) String() string { return text(s.Tables()) }

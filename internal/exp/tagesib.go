package exp

import (
	"strings"

	"warpsched/internal/config"
)

// TageSIBSection is the derived detector head-to-head: DDOS anchors
// versus the TAGE-SIB sensitivity grid, all other dimensions held at the
// Table I evaluation point (GTO, BOWS off, quick suite sizes) and each
// row aggregated exactly as in Table I.
type TageSIBSection struct {
	// Rows are the grid points in TageSIBLayout order.
	Rows []DetectionRow
}

// TageSIBLayout returns the detector head-to-head grid: the two Table I
// anchor points for DDOS (the paper's best and its MODULO false-
// detection case) followed by a TAGE-SIB sensitivity sweep over table
// count, history geometry, tag width and confirmation threshold around
// the default 4-table 4..32-history configuration.
func TageSIBLayout() []Column {
	modulo := config.DefaultDDOS()
	modulo.Hash = config.HashModulo
	ddos := func(label string, d config.DDOS) Column {
		return Column{label, Spec{Sched: config.GTO, BOWS: bowsOff(), DDOS: d}}
	}
	tage := func(label string, f func(*config.TAGE)) Column {
		col := ddos(label, config.DefaultDDOS())
		col.Detector, col.TAGE = config.DetectTAGE, config.DefaultTAGE()
		f(&col.TAGE)
		return col
	}
	return []Column{
		ddos("DDOS XOR, m=k=8", config.DefaultDDOS()),
		ddos("DDOS MODULO, m=k=8", modulo),
		tage("TAGE n=4, h=4..32", func(*config.TAGE) {}),
		tage("TAGE n=3, h=4..16", func(t *config.TAGE) { t.Tables = 3 }),
		tage("TAGE n=2, h=4..8", func(t *config.TAGE) { t.Tables = 2 }),
		tage("TAGE h=2..16", func(t *config.TAGE) { t.BaseHist = 2 }),
		tage("TAGE tag=4", func(t *config.TAGE) { t.TagBits = 4 }),
		tage("TAGE t=2", func(t *config.TAGE) { t.ConfidenceThreshold = 2 }),
		tage("TAGE t=8", func(t *config.TAGE) { t.ConfidenceThreshold = 8 }),
	}
}

// TageSIB runs the detector head-to-head over the sync and sync-free
// suites.
func TageSIB(c Cfg) (*TageSIBSection, error) {
	cols := TageSIBLayout()
	runs, err := c.detectionSweep(cols)
	if err != nil {
		return nil, err
	}
	return DeriveTageSIB(nil, cols, runs), nil
}

// DeriveTageSIB derives the head-to-head from a TageSIBLayout run matrix.
func DeriveTageSIB(_ []string, cols []Column, runs [][]Run) *TageSIBSection {
	return &TageSIBSection{Rows: DetectionRows(cols, runs)}
}

// String renders the head-to-head in the harness's text format.
func (s *TageSIBSection) String() string {
	var sb strings.Builder
	sb.WriteString("TAGE-SIB vs DDOS — detection accuracy over the Table I evaluation point (GTO, BOWS off)\n\n")
	t := &table{header: []string{"config", "precision", "recall", "avg TSDR", "avg DPR (true)", "avg FSDR", "avg DPR (false)"}}
	for _, row := range s.Rows {
		t.add(row.Label, f3(row.Precision), f3(row.Recall),
			f3(row.TSDR), f3(row.TrueDPR), f3(row.FSDR), f3(row.FalseDPR))
	}
	sb.WriteString(t.String())
	sb.WriteString("\nreading: DDOS XOR m=k=8 is the paper's anchor (TSDR=1, FSDR=0); MODULO shows its false-detection mode.\n")
	sb.WriteString("TAGE-SIB trades table capacity for path-signature detection; smaller geometries and looser thresholds\n")
	sb.WriteString("show where tagged-table aliasing starts to cost precision\n")
	return sb.String()
}

package exp

import (
	"fmt"
	"strings"

	"warpsched/internal/config"
)

// TageSIBSpec is one point of the detector head-to-head grid: a row
// label plus the full detector selection it evaluates.
type TageSIBSpec struct {
	// Label is the row label, e.g. "TAGE n=4, h=4..32".
	Label string
	// Det selects the detector; DDOS or TAGE carries its parameters.
	Det  config.DetectorKind
	DDOS config.DDOS
	TAGE config.TAGE
}

// Desc returns the spec's detector descriptor — the same string the
// run's manifest records carry in their DDOS column, so the report
// pipeline rebuilds the table by joining on it.
func (s TageSIBSpec) Desc() string {
	if s.Det == config.DetectTAGE {
		return s.TAGE.Desc()
	}
	return s.DDOS.Desc()
}

// TageSIBLayout returns the detector head-to-head grid: the two Table I
// anchor points for DDOS (the paper's best and its MODULO false-
// detection case) followed by a TAGE-SIB sensitivity sweep over table
// count, history geometry, tag width and confirmation threshold around
// the default 4-table 4..32-history configuration.
func TageSIBLayout() []TageSIBSpec {
	mkTage := func(f func(*config.TAGE)) config.TAGE {
		t := config.DefaultTAGE()
		f(&t)
		return t
	}
	modulo := config.DefaultDDOS()
	modulo.Hash = config.HashModulo
	return []TageSIBSpec{
		{Label: "DDOS XOR, m=k=8", Det: config.DetectDDOS, DDOS: config.DefaultDDOS()},
		{Label: "DDOS MODULO, m=k=8", Det: config.DetectDDOS, DDOS: modulo},
		{Label: "TAGE n=4, h=4..32", Det: config.DetectTAGE, DDOS: config.DefaultDDOS(), TAGE: config.DefaultTAGE()},
		{Label: "TAGE n=3, h=4..16", Det: config.DetectTAGE, DDOS: config.DefaultDDOS(),
			TAGE: mkTage(func(t *config.TAGE) { t.Tables = 3 })},
		{Label: "TAGE n=2, h=4..8", Det: config.DetectTAGE, DDOS: config.DefaultDDOS(),
			TAGE: mkTage(func(t *config.TAGE) { t.Tables = 2 })},
		{Label: "TAGE h=2..16", Det: config.DetectTAGE, DDOS: config.DefaultDDOS(),
			TAGE: mkTage(func(t *config.TAGE) { t.BaseHist = 2 })},
		{Label: "TAGE tag=4", Det: config.DetectTAGE, DDOS: config.DefaultDDOS(),
			TAGE: mkTage(func(t *config.TAGE) { t.TagBits = 4 })},
		{Label: "TAGE t=2", Det: config.DetectTAGE, DDOS: config.DefaultDDOS(),
			TAGE: mkTage(func(t *config.TAGE) { t.ConfidenceThreshold = 2 })},
		{Label: "TAGE t=8", Det: config.DetectTAGE, DDOS: config.DefaultDDOS(),
			TAGE: mkTage(func(t *config.TAGE) { t.ConfidenceThreshold = 8 })},
	}
}

// TageSIBRow is one grid point's detection quality averaged over the
// benchmark suite, plus suite-aggregate precision/recall over confirmed
// SIBs (the head-to-head accuracy columns).
type TageSIBRow struct {
	Label string
	// Desc is the detector descriptor the row's records carry.
	Desc string
	// Suite-mean rates and detection phase ratios, as in Table I.
	TSDR     float64
	TrueDPR  float64
	FSDR     float64
	FalseDPR float64
	// Precision/Recall aggregate confirmations across the whole suite:
	// precision = true detections / all detections, recall = true
	// detections / true SIBs seen.
	Precision float64
	Recall    float64
}

// TageSIBResult is the detector head-to-head: DDOS anchors versus the
// TAGE-SIB sensitivity grid, all other dimensions held at the Table I
// evaluation point (GTO, BOWS off, quick suite sizes).
type TageSIBResult struct {
	Rows []TageSIBRow
}

// TageSIB runs the detector head-to-head over the sync and sync-free
// suites. Like Table1, detection-quality rates are insensitive to input
// scale, so the sweep always uses the quick suite sizes.
func TageSIB(c Cfg) (*TageSIBResult, error) {
	c.Quick = true
	gpu := c.fermi()
	suite := append(c.syncSuite(), c.syncFreeSuite()...)
	layout := TageSIBLayout()

	var specs []Spec
	for _, gp := range layout {
		for _, k := range suite {
			sp := Spec{GPU: gpu, Sched: config.GTO, BOWS: bowsOff(), DDOS: gp.DDOS, Kernel: k}
			if gp.Det == config.DetectTAGE {
				sp.Detector, sp.TAGE = config.DetectTAGE, gp.TAGE
			}
			specs = append(specs, sp)
		}
	}
	outs := c.runAll(specs)

	res := &TageSIBResult{}
	for i, gp := range layout {
		var tsdrs, fsdrs, tdprs, fdprs []float64
		var trueSeen, trueDet, falseDet int
		for j, k := range suite {
			o := outs[i*len(suite)+j]
			if o.Err != nil {
				return nil, fmt.Errorf("tagesib %s on %s: %w", gp.Label, k.Name, o.Err)
			}
			det := o.Res.Detection
			trueSeen += det.TrueSeen
			trueDet += det.TrueDetected
			falseDet += det.FalseDetected
			if det.TrueSeen > 0 {
				tsdrs = append(tsdrs, det.TSDR())
				if det.TrueDetected > 0 {
					tdprs = append(tdprs, det.TrueDPR())
				}
			}
			if det.FalseSeen > 0 {
				fsdrs = append(fsdrs, det.FSDR())
				if det.FalseDetected > 0 {
					fdprs = append(fdprs, det.FalseDPR())
				}
			}
		}
		row := TageSIBRow{
			Label: gp.Label, Desc: gp.Desc(),
			TSDR: mean(tsdrs), TrueDPR: mean(tdprs),
			FSDR: mean(fsdrs), FalseDPR: mean(fdprs),
			Precision: ratio(trueDet, trueDet+falseDet),
			Recall:    ratio(trueDet, trueSeen),
		}
		res.Rows = append(res.Rows, row)
		c.note("tagesib %s: precision=%.3f recall=%.3f FSDR=%.3f", gp.Label, row.Precision, row.Recall, row.FSDR)
	}
	return res, nil
}

// ratio returns num/den, or 0 for an empty denominator.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// String renders the head-to-head in the harness's text format.
func (r *TageSIBResult) String() string {
	var sb strings.Builder
	sb.WriteString("TAGE-SIB vs DDOS — detection accuracy over the Table I evaluation point (GTO, BOWS off)\n\n")
	t := &table{header: []string{"config", "precision", "recall", "avg TSDR", "avg DPR (true)", "avg FSDR", "avg DPR (false)"}}
	for _, row := range r.Rows {
		t.add(row.Label, f3(row.Precision), f3(row.Recall),
			f3(row.TSDR), f3(row.TrueDPR), f3(row.FSDR), f3(row.FalseDPR))
	}
	sb.WriteString(t.String())
	sb.WriteString("\nreading: DDOS XOR m=k=8 is the paper's anchor (TSDR=1, FSDR=0); MODULO shows its false-detection mode.\n")
	sb.WriteString("TAGE-SIB trades table capacity for path-signature detection; smaller geometries and looser thresholds\n")
	sb.WriteString("show where tagged-table aliasing starts to cost precision\n")
	return sb.String()
}

package report

import (
	"warpsched/internal/exp"
	"warpsched/internal/metrics"
)

// Report is a fully derived reproduction report, ready to render: the
// sections internal/exp derives (and cmd/experiments prints as text),
// here looked up from manifests and rendered as Markdown and SVG. A
// section field is nil when the manifests contain no records for its
// experiment, and the document simply omits it.
type Report struct {
	set *Set
	// Fig9 and Fig15 are the Fermi and Pascal performance/energy sweeps.
	Fig9, Fig15 *exp.BarsSection
	// Delay is the Figures 10-13 delay-limit sweep.
	Delay *exp.DelaySection
	// Fig14 is the detection-error overhead study.
	Fig14 *exp.Fig14Section
	// Table1 is the DDOS sensitivity table.
	Table1 *exp.Table1Section
	// Ablation is the BOWS component study.
	Ablation *exp.AblationSection
}

// Build joins the manifests and derives every report section present in
// them (sections whose experiment has no records are omitted; incomplete
// sweeps inside a present section are a *MissingRunError).
func Build(ms ...*metrics.Manifest) (*Report, error) {
	s, err := Join(ms...)
	if err != nil {
		return nil, err
	}
	r := &Report{set: s}
	if err := r.deriveAll(); err != nil {
		return nil, err
	}
	return r, nil
}

// Set exposes the joined record set the report was derived from.
func (r *Report) Set() *Set { return r.set }

package exp

import (
	"fmt"

	"warpsched/internal/config"
	"warpsched/internal/stats"
)

// DetectionRow is one detector configuration's detection quality over
// the benchmark suite: one row of Table I.
type DetectionRow struct {
	// Label is the configuration label, e.g. "XOR, m=k=8".
	Label string
	// TSDR/FSDR are mean true/false SIB detection rates over kernels
	// that saw such branches; TrueDPR/FalseDPR are the mean detection
	// phase ratios over kernels with confirmed detections.
	TSDR, TrueDPR, FSDR, FalseDPR float64
	// Precision and Recall aggregate raw counts over the whole suite:
	// precision = ΣTrueDetected / (ΣTrueDetected + ΣFalseDetected),
	// recall = ΣTrueDetected / ΣTrueSeen.
	Precision, Recall float64
}

// detectionRows is the detection-quality aggregation: for each column
// of a kernels × columns run matrix, per-kernel TSDR/FSDR and DPR means
// plus suite-aggregate precision/recall from the raw confirmation counts.
func detectionRows(cols []Column, runs [][]Run) []DetectionRow {
	rows := make([]DetectionRow, len(cols))
	for ci, col := range cols {
		var tsdrs, fsdrs, tdprs, fdprs []float64
		var trueSeen, trueDet, falseDet float64
		for ki := range runs {
			d := runs[ki][ci].Detection
			trueSeen += float64(d.TrueSeen)
			trueDet += float64(d.TrueDetected)
			falseDet += float64(d.FalseDetected)
			if d.TrueSeen > 0 {
				tsdrs = append(tsdrs, float64(d.TrueDetected)/float64(d.TrueSeen))
				if d.TrueDetected > 0 {
					tdprs = append(tdprs, d.TrueDPR)
				}
			}
			if d.FalseSeen > 0 {
				fsdrs = append(fsdrs, float64(d.FalseDetected)/float64(d.FalseSeen))
				if d.FalseDetected > 0 {
					fdprs = append(fdprs, d.FalseDPR)
				}
			}
		}
		rows[ci] = DetectionRow{
			Label: col.Label,
			TSDR:  stats.Mean(tsdrs), TrueDPR: stats.Mean(tdprs),
			FSDR: stats.Mean(fsdrs), FalseDPR: stats.Mean(fdprs),
			Precision: ratio(trueDet, trueDet+falseDet),
			Recall:    ratio(trueDet, trueSeen),
		}
	}
	return rows
}

// Table1Section is the derived Table I content: DDOS detection quality
// under parameter sensitivity.
type Table1Section struct {
	// Blocks are the table's sections in display order.
	Blocks []Table1Block
}

// Table1Block is one section of Table I (one varied dimension).
type Table1Block struct {
	// Name is the section heading.
	Name string
	// Rows are the section's configurations in display order.
	Rows []DetectionRow
}

// Table1Group is one block of the Table I layout, varying a single
// detector dimension around the base XOR m=k=8, t=4, l=8 configuration.
type Table1Group struct {
	// Name is the section heading, e.g. "hashing function (t=4, l=8)".
	Name string
	// Specs are the section's rows in display order (on GTO, BOWS off).
	Specs []Column
}

// Table1Layout returns the section layout of the Table I sensitivity
// sweep. The same configuration may appear in several sections (the base
// configuration appears in four); Table1Columns deduplicates them by
// detector descriptor, which is also the manifest join key, so layout and
// join key cannot drift apart.
func Table1Layout() []Table1Group {
	mk := func(label string, f func(*config.DDOS)) Column {
		d := config.DefaultDDOS()
		f(&d)
		return Column{label, Spec{Sched: config.GTO, BOWS: bowsOff(), DDOS: d}}
	}
	var sections []Table1Group

	// Hashing function at t=4, l=8.
	var specs []Column
	for _, p := range []struct {
		label string
		hash  config.HashKind
		width int
	}{
		{"XOR, m=k=4", config.HashXOR, 4},
		{"XOR, m=k=8", config.HashXOR, 8},
		{"MODULO, m=k=4", config.HashModulo, 4},
		{"MODULO, m=k=8", config.HashModulo, 8},
	} {
		p := p
		specs = append(specs, mk(p.label, func(d *config.DDOS) {
			d.Hash = p.hash
			d.PathBits, d.ValueBits = p.width, p.width
		}))
	}
	sections = append(sections, Table1Group{"hashing function (t=4, l=8)", specs})

	// Hash width with XOR.
	specs = nil
	for _, w := range []int{2, 3, 4, 8} {
		w := w
		specs = append(specs, mk(fmt.Sprintf("m=k=%d", w), func(d *config.DDOS) {
			d.PathBits, d.ValueBits = w, w
		}))
	}
	sections = append(sections, Table1Group{"hashed path/value width (XOR, t=4, l=8)", specs})

	// Confidence threshold at m=k=4.
	specs = nil
	for _, t := range []int{2, 4, 8, 12} {
		t := t
		specs = append(specs, mk(fmt.Sprintf("t=%d", t), func(d *config.DDOS) {
			d.PathBits, d.ValueBits = 4, 4
			d.ConfidenceThreshold = t
		}))
	}
	sections = append(sections, Table1Group{"confidence threshold (XOR, m=k=4, l=8)", specs})

	// History length at m=k=8.
	specs = nil
	for _, l := range []int{1, 2, 4, 8} {
		l := l
		specs = append(specs, mk(fmt.Sprintf("l=%d", l), func(d *config.DDOS) {
			d.HistoryLen = l
		}))
	}
	sections = append(sections, Table1Group{"history registers length (XOR, m=k=8, t=4)", specs})

	// Time sharing.
	specs = nil
	for _, share := range []bool{false, true} {
		for _, w := range []int{4, 8} {
			share, w := share, w
			sh := 0
			if share {
				sh = 1
			}
			specs = append(specs, mk(fmt.Sprintf("sh=%d, m=k=%d", sh, w), func(d *config.DDOS) {
				d.PathBits, d.ValueBits = w, w
				d.TimeShare = share
			}))
		}
	}
	sections = append(sections, Table1Group{"time sharing of history registers (XOR, t=4, l=8, epoch=1000)", specs})
	return sections
}

// Table1Columns returns Table1Layout's distinct detector configurations
// in first-appearance order: the sweep's actual columns. This is the
// harness's largest matrix, so the dedup matters (20 rows collapse to 19
// configurations x 14 kernels).
func Table1Columns() []Column {
	var cols []Column
	seen := map[string]bool{}
	for _, g := range Table1Layout() {
		for _, sp := range g.Specs {
			if !seen[sp.DetectorDesc()] {
				seen[sp.DetectorDesc()] = true
				cols = append(cols, sp)
			}
		}
	}
	return cols
}

// Table1 runs the sensitivity sweep over the sync and sync-free suites
// on Fermi. Detection-quality rates are insensitive to input scale (loops
// only need enough iterations to exercise the history FSM), so it always
// uses the quick suite sizes.
func Table1(c Cfg) (*Table1Section, error) {
	c.Quick = true
	cols := Table1Columns()
	_, runs, err := c.sweep(c.fermi(), append(c.syncSuite(), c.syncFreeSuite()...), cols, false)
	if err != nil {
		return nil, err
	}
	return DeriveTable1(nil, cols, runs), nil
}

// DeriveTable1 derives Table I from a Table1Columns run matrix, fanning
// each distinct configuration's row out to every block that lists it.
func DeriveTable1(_ []string, cols []Column, runs [][]Run) *Table1Section {
	byDesc := map[string]DetectionRow{}
	for ci, row := range detectionRows(cols, runs) {
		byDesc[cols[ci].DetectorDesc()] = row
	}
	sec := &Table1Section{}
	for _, g := range Table1Layout() {
		b := Table1Block{Name: g.Name}
		for _, sp := range g.Specs {
			row := byDesc[sp.DetectorDesc()]
			row.Label = sp.Label
			b.Rows = append(b.Rows, row)
		}
		sec.Blocks = append(sec.Blocks, b)
	}
	return sec
}

// Tables lays out Table I: one table per varied dimension.
func (s *Table1Section) Tables() []Table {
	var out []Table
	for _, b := range s.Blocks {
		t := Table{
			Title:  "Table I — sensitivity to " + b.Name,
			Header: []string{"config", "avg TSDR", "avg DPR (true)", "avg FSDR", "avg DPR (false)", "precision", "recall"},
		}
		for _, row := range b.Rows {
			t.add(row.Label, f3(row.TSDR), f3(row.TrueDPR), f3(row.FSDR), f3(row.FalseDPR), f3(row.Precision), f3(row.Recall))
		}
		out = append(out, t)
	}
	out[0].Note = []string{
		"TSDR/FSDR: true/false SIB detection rate and DPR: detection phase ratio, each averaged over the benchmark",
		"suite; precision and recall of SIB confirmation aggregate the whole suite's counts",
	}
	out[len(out)-1].Note = []string{
		"paper: TSDR=1 for all XOR configs; FSDR=0 at XOR m=k=8; MODULO false-detects (0.17/0.104 at 4/8 bits);",
		"higher thresholds trade detection delay for fewer false positives; l≥8 needed for full TSDR;",
		"time sharing reduces TSDR to 0.642 and lengthens the detection phase",
	}
	return out
}

// String renders Table I in the harness's text format.
func (s *Table1Section) String() string { return text(s.Tables()) }

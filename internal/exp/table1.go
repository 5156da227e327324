package exp

import (
	"fmt"
	"strings"

	"warpsched/internal/config"
)

// Table1Row is one configuration of the DDOS sensitivity study: average
// true/false spin detection rates and detection phase ratios over the
// benchmark suite.
type Table1Row struct {
	Label     string
	TSDR      float64
	TrueDPR   float64
	FSDR      float64
	FalseDPR  float64
	Benchmark int // benchmarks contributing
}

// Table1Result reproduces Table I: DDOS sensitivity to hashing function,
// hash width, confidence threshold, history length and time sharing.
type Table1Result struct {
	Sections map[string][]Table1Row
	Order    []string
}

// Table1Spec is one point of the Table I sensitivity sweep: a row label
// and the detector configuration it evaluates.
type Table1Spec struct {
	// Label is the row label, e.g. "XOR, m=k=8".
	Label string
	// DDOS is the full detector configuration of the point.
	DDOS config.DDOS
}

// Table1Section is one block of Table I, varying a single detector
// dimension around the base XOR m=k=8, t=4, l=8 configuration.
type Table1Section struct {
	// Name is the section heading, e.g. "hashing function (t=4, l=8)".
	Name string
	// Specs are the section's rows in display order.
	Specs []Table1Spec
}

// Table1Layout returns the section layout of the Table I sensitivity
// sweep. The same configuration may appear in several sections (the base
// configuration appears in four); runs are deduplicated by DDOS.Desc(),
// which is also how internal/report rebuilds the table from manifest
// records, so layout and join key cannot drift apart.
func Table1Layout() []Table1Section {
	mk := func(f func(*config.DDOS)) config.DDOS {
		d := config.DefaultDDOS()
		f(&d)
		return d
	}
	var sections []Table1Section

	// Hashing function at t=4, l=8.
	var specs []Table1Spec
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
		specs = append(specs, Table1Spec{p.label, mk(func(d *config.DDOS) {
			d.Hash = p.hash
			d.PathBits, d.ValueBits = p.width, p.width
		})})
	}
	sections = append(sections, Table1Section{"hashing function (t=4, l=8)", specs})

	// Hash width with XOR.
	specs = nil
	for _, w := range []int{2, 3, 4, 8} {
		w := w
		specs = append(specs, Table1Spec{fmt.Sprintf("m=k=%d", w), mk(func(d *config.DDOS) {
			d.PathBits, d.ValueBits = w, w
		})})
	}
	sections = append(sections, Table1Section{"hashed path/value width (XOR, t=4, l=8)", specs})

	// Confidence threshold at m=k=4.
	specs = nil
	for _, t := range []int{2, 4, 8, 12} {
		t := t
		specs = append(specs, Table1Spec{fmt.Sprintf("t=%d", t), mk(func(d *config.DDOS) {
			d.PathBits, d.ValueBits = 4, 4
			d.ConfidenceThreshold = t
		})})
	}
	sections = append(sections, Table1Section{"confidence threshold (XOR, m=k=4, l=8)", specs})

	// History length at m=k=8.
	specs = nil
	for _, l := range []int{1, 2, 4, 8} {
		l := l
		specs = append(specs, Table1Spec{fmt.Sprintf("l=%d", l), mk(func(d *config.DDOS) {
			d.HistoryLen = l
		})})
	}
	sections = append(sections, Table1Section{"history registers length (XOR, m=k=8, t=4)", specs})

	// Time sharing.
	specs = nil
	for _, share := range []bool{false, true} {
		for _, w := range []int{4, 8} {
			share, w := share, w
			sh := 0
			if share {
				sh = 1
			}
			specs = append(specs, Table1Spec{fmt.Sprintf("sh=%d, m=k=%d", sh, w), mk(func(d *config.DDOS) {
				d.PathBits, d.ValueBits = w, w
				d.TimeShare = share
			})})
		}
	}
	sections = append(sections, Table1Section{"time sharing of history registers (XOR, t=4, l=8, epoch=1000)", specs})
	return sections
}

// Table1 runs the sensitivity sweep over the sync and sync-free suites.
// Detection-quality rates are insensitive to input scale (loops only need
// enough iterations to exercise the history FSM), so the sweep always
// uses the quick suite sizes: 20 configurations x 14 kernels is the
// largest run matrix in the harness.
func Table1(c Cfg) (*Table1Result, error) {
	c.Quick = true
	gpu := c.fermi()
	suite := append(c.syncSuite(), c.syncFreeSuite()...)
	sections := Table1Layout()

	// Unique configurations in first-appearance order (keyed by
	// descriptor); each expands to one run per suite kernel. Duplicate
	// points (the base config appears in several sections) are simulated
	// once and the cached row is relabeled per section. This is the
	// harness's largest matrix, so the dedup matters (20 requests
	// collapse to 19 configs x 14 kernels).
	var order []config.DDOS
	firstLabel := map[string]string{}
	for _, sec := range sections {
		for _, sp := range sec.Specs {
			if _, ok := firstLabel[sp.DDOS.Desc()]; !ok {
				firstLabel[sp.DDOS.Desc()] = sp.Label
				order = append(order, sp.DDOS)
			}
		}
	}
	var specs []Spec
	for _, d := range order {
		for _, k := range suite {
			specs = append(specs, Spec{GPU: gpu, Sched: config.GTO, BOWS: bowsOff(), DDOS: d, Kernel: k})
		}
	}
	outs := c.runAll(specs)

	cache := map[string]Table1Row{}
	for i, d := range order {
		label := firstLabel[d.Desc()]
		var tsdrs, fsdrs, tdprs, fdprs []float64
		for j, k := range suite {
			o := outs[i*len(suite)+j]
			if o.Err != nil {
				return nil, fmt.Errorf("table1 %s on %s: %w", label, k.Name, o.Err)
			}
			det := o.Res.Detection
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
		row := Table1Row{
			Label: label, Benchmark: len(suite),
			TSDR: mean(tsdrs), TrueDPR: mean(tdprs),
			FSDR: mean(fsdrs), FalseDPR: mean(fdprs),
		}
		cache[d.Desc()] = row
		c.note("table1 %s: TSDR=%.3f FSDR=%.3f", label, row.TSDR, row.FSDR)
	}

	res := &Table1Result{Sections: map[string][]Table1Row{}}
	for _, sec := range sections {
		var rows []Table1Row
		for _, sp := range sec.Specs {
			row := cache[sp.DDOS.Desc()]
			row.Label = sp.Label
			rows = append(rows, row)
		}
		res.Order = append(res.Order, sec.Name)
		res.Sections[sec.Name] = rows
	}
	return res, nil
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// String renders Table I in the harness's text format.
func (r *Table1Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table I — DDOS sensitivity to design parameters (averaged over the benchmark suite)\n\n")
	for _, name := range r.Order {
		fmt.Fprintf(&sb, "· Sensitivity to %s\n", name)
		t := &table{header: []string{"config", "avg TSDR", "avg DPR (true)", "avg FSDR", "avg DPR (false)"}}
		for _, row := range r.Sections[name] {
			t.add(row.Label, f3(row.TSDR), f3(row.TrueDPR), f3(row.FSDR), f3(row.FalseDPR))
		}
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	sb.WriteString("paper: TSDR=1 for all XOR configs; FSDR=0 at XOR m=k=8; MODULO false-detects (0.17/0.104 at 4/8 bits);\n")
	sb.WriteString("       higher thresholds trade detection delay for fewer false positives; l≥8 needed for full TSDR;\n")
	sb.WriteString("       time sharing reduces TSDR to 0.642 and lengthens the detection phase\n")
	return sb.String()
}

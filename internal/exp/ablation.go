package exp

import (
	"strings"

	"warpsched/internal/config"
)

// AblationResult isolates the contributions of BOWS's parts, a study the
// paper motivates but does not tabulate:
//
//   - deprioritization only (BOWS with a zero delay limit),
//   - fixed minimum delay (1000) without adaptivity,
//   - the full adaptive system,
//   - and detection source: DDOS-driven versus oracle static annotations
//     (the paper's "identified by programmer or compiler" mode), which
//     bounds the cost of dynamic detection.
type AblationResult struct {
	Kernels []string
	Columns []string
	// Time[kernel][column] normalized to GTO.
	Time map[string][]float64
	Gm   []float64
}

// AblationColumn is one arm of the component study: a display label and
// the BOWS configuration it evaluates (on GTO, Fermi). internal/report
// rebuilds the ablation table from manifest records through the same
// list, joining on BOWS.Desc().
type AblationColumn struct {
	// Label is the column heading, e.g. "deprioritize-only".
	Label string
	// BOWS is the arm's scheduler-extension configuration.
	BOWS config.BOWS
}

// AblationLayout returns the ablation arms in display order: baseline
// GTO, deprioritization only (zero delay limit), a fixed 1000-cycle
// minimum interval, the full adaptive system, and adaptive BOWS driven by
// oracle static annotations instead of DDOS.
func AblationLayout() []AblationColumn {
	return []AblationColumn{
		{"GTO", bowsOff()},
		{"deprioritize-only", config.FixedBOWS(0)},
		{"fixed-1000", config.FixedBOWS(1000)},
		{"adaptive(DDOS)", config.DefaultBOWS()},
		{"adaptive(static)", func() config.BOWS {
			b := config.DefaultBOWS()
			b.Mode = config.BOWSStatic
			return b
		}()},
	}
}

// Ablation runs the component study on GTO.
func Ablation(c Cfg) (*AblationResult, error) {
	gpu := c.fermi()
	layout := AblationLayout()
	r := &AblationResult{Time: map[string][]float64{}}
	var configs []config.BOWS
	for _, col := range layout {
		r.Columns = append(r.Columns, col.Label)
		configs = append(configs, col.BOWS)
	}
	suite := c.syncSuite()
	var specs []Spec
	for _, k := range suite {
		for _, bows := range configs {
			specs = append(specs, Spec{GPU: gpu, Sched: config.GTO, BOWS: bows, DDOS: config.DefaultDDOS(), Kernel: k})
		}
	}
	outs := c.runAll(specs)
	if err := firstErr(outs); err != nil {
		return nil, err
	}
	gm := make([][]float64, len(configs))
	idx := 0
	for _, k := range suite {
		r.Kernels = append(r.Kernels, k.Name)
		var times []float64
		for i := range configs {
			res := outs[idx].Res
			idx++
			times = append(times, float64(res.Stats.Cycles))
			c.note("ablation %s %s: %d cycles", k.Name, r.Columns[i], res.Stats.Cycles)
		}
		base := times[0]
		for i := range times {
			times[i] /= base
			gm[i] = append(gm[i], times[i])
		}
		r.Time[k.Name] = times
	}
	for _, vs := range gm {
		r.Gm = append(r.Gm, gmean(vs))
	}
	return r, nil
}

// String renders the ablation table in the harness's text format.
func (r *AblationResult) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation — BOWS component contributions (normalized execution time, GTO = 1.00)\n\n")
	t := &table{header: append([]string{"kernel"}, r.Columns...)}
	for _, k := range r.Kernels {
		row := []string{k}
		for _, v := range r.Time[k] {
			row = append(row, f2(v))
		}
		t.add(row...)
	}
	row := []string{"gmean"}
	for _, v := range r.Gm {
		row = append(row, f2(v))
	}
	t.add(row...)
	sb.WriteString(t.String())
	sb.WriteString("reading: deprioritize-only isolates the priority-queue change; fixed-1000 adds the minimum\n")
	sb.WriteString("interval; adaptive(static) bounds what a compiler-annotated BOWS could do over DDOS\n")
	return sb.String()
}

package exp

import (
	"fmt"
	"strings"

	"warpsched/internal/config"
	"warpsched/internal/energy"
)

// ExecEnergyResult reproduces Figure 9 (Fermi) / Figure 15 (Pascal):
// execution time and dynamic energy for every synchronization kernel
// under LRR, GTO and CAWA with and without BOWS, normalized to LRR.
type ExecEnergyResult struct {
	Label   string
	GPUName string
	Kernels []string
	// Time[kernel][column] and Energy[kernel][column] follow Columns.
	Columns []string
	Time    map[string][]float64
	Energy  map[string][]float64
	// GmeanTime/GmeanEnergy are geometric means per column.
	GmeanTime   []float64
	GmeanEnergy []float64
}

// ExecEnergyColumns is the paper's bar order.
var ExecEnergyColumns = []string{"LRR", "LRR+BOWS", "GTO", "GTO+BOWS", "CAWA", "CAWA+BOWS"}

// ExecEnergy runs the Figure 9/15 sweep on the given GPU configuration.
func ExecEnergy(c Cfg, gpu config.GPU, label string) (*ExecEnergyResult, error) {
	r := &ExecEnergyResult{
		Label:   label,
		GPUName: gpu.Name,
		Columns: ExecEnergyColumns,
		Time:    map[string][]float64{},
		Energy:  map[string][]float64{},
	}
	coeff := energy.ByConfigName(gpu.Name)
	suite := c.syncSuite()
	var specs []Spec
	for _, k := range suite {
		for _, kind := range config.Schedulers {
			for _, withBOWS := range []bool{false, true} {
				bows := bowsOff()
				if withBOWS {
					bows = config.DefaultBOWS()
				}
				specs = append(specs, Spec{GPU: gpu, Sched: kind, BOWS: bows, DDOS: config.DefaultDDOS(), Kernel: k})
			}
		}
	}
	outs := c.runAll(specs)
	idx := 0
	for _, k := range suite {
		r.Kernels = append(r.Kernels, k.Name)
		times := make([]float64, len(r.Columns))
		energies := make([]float64, len(r.Columns))
		col := 0
		for _, kind := range config.Schedulers {
			for _, withBOWS := range []bool{false, true} {
				o := outs[idx]
				idx++
				res := o.Res
				if o.Err != nil {
					if res == nil {
						return nil, fmt.Errorf("%s %s/%v: %w", label, k.Name, kind, o.Err)
					}
					// Watchdog abort: treat as "at least this many cycles".
					c.note("%s %s %s: watchdog at %d cycles (lower bound)", label, k.Name, kind, res.Stats.Cycles)
				}
				times[col] = float64(res.Stats.Cycles)
				energies[col] = energy.Compute(coeff, &res.Stats).Total()
				c.note("%s %s %s bows=%v: %d cycles", label, k.Name, kind, withBOWS, res.Stats.Cycles)
				col++
			}
		}
		// Normalize to LRR (column 0), as in the paper.
		base, baseE := times[0], energies[0]
		for i := range times {
			times[i] /= base
			energies[i] /= baseE
		}
		r.Time[k.Name] = times
		r.Energy[k.Name] = energies
	}
	r.GmeanTime = make([]float64, len(r.Columns))
	r.GmeanEnergy = make([]float64, len(r.Columns))
	for i := range r.Columns {
		var ts, es []float64
		for _, k := range r.Kernels {
			ts = append(ts, r.Time[k][i])
			es = append(es, r.Energy[k][i])
		}
		r.GmeanTime[i] = gmean(ts)
		r.GmeanEnergy[i] = gmean(es)
	}
	return r, nil
}

// Speedup returns the geometric-mean speedup of base+BOWS over base.
func (r *ExecEnergyResult) Speedup(base config.SchedulerKind) float64 {
	bi, wi := -1, -1
	for i, c := range r.Columns {
		if c == string(base) {
			bi = i
		}
		if c == string(base)+"+BOWS" {
			wi = i
		}
	}
	if bi < 0 || wi < 0 || r.GmeanTime[wi] == 0 {
		return 0
	}
	return r.GmeanTime[bi] / r.GmeanTime[wi]
}

// EnergySaving returns the geometric-mean energy reduction factor of
// base+BOWS versus base.
func (r *ExecEnergyResult) EnergySaving(base config.SchedulerKind) float64 {
	bi, wi := -1, -1
	for i, c := range r.Columns {
		if c == string(base) {
			bi = i
		}
		if c == string(base)+"+BOWS" {
			wi = i
		}
	}
	if bi < 0 || wi < 0 || r.GmeanEnergy[wi] == 0 {
		return 0
	}
	return r.GmeanEnergy[bi] / r.GmeanEnergy[wi]
}

// String renders the Figure 9/15 tables in the harness's text format.
func (r *ExecEnergyResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — normalized execution time on %s (lower is better, LRR = 1.00)\n\n", r.Label, r.GPUName)
	t := &table{header: append([]string{"kernel"}, r.Columns...)}
	for _, k := range r.Kernels {
		row := []string{k}
		for _, v := range r.Time[k] {
			row = append(row, f2(v))
		}
		t.add(row...)
	}
	gm := []string{"gmean"}
	for _, v := range r.GmeanTime {
		gm = append(gm, f2(v))
	}
	t.add(gm...)
	sb.WriteString(t.String())

	fmt.Fprintf(&sb, "\n%s — normalized dynamic energy on %s\n\n", r.Label, r.GPUName)
	t2 := &table{header: append([]string{"kernel"}, r.Columns...)}
	for _, k := range r.Kernels {
		row := []string{k}
		for _, v := range r.Energy[k] {
			row = append(row, f2(v))
		}
		t2.add(row...)
	}
	gm = []string{"gmean"}
	for _, v := range r.GmeanEnergy {
		gm = append(gm, f2(v))
	}
	t2.add(gm...)
	sb.WriteString(t2.String())

	fmt.Fprintf(&sb, "\nBOWS speedup: %.2fx vs LRR, %.2fx vs GTO, %.2fx vs CAWA\n",
		r.Speedup(config.LRR), r.Speedup(config.GTO), r.Speedup(config.CAWA))
	fmt.Fprintf(&sb, "BOWS energy saving: %.2fx vs LRR, %.2fx vs GTO, %.2fx vs CAWA\n",
		r.EnergySaving(config.LRR), r.EnergySaving(config.GTO), r.EnergySaving(config.CAWA))
	if r.Label == "Fig. 9" {
		sb.WriteString("paper (GTX480): speedup 2.2x/1.4x/1.5x and energy 2.3x/1.7x/1.6x vs LRR/GTO/CAWA\n")
	} else {
		sb.WriteString("paper (Pascal): speedup 1.9x/1.7x/1.5x vs LRR/GTO/CAWA\n")
	}
	return sb.String()
}

package exp

import (
	"fmt"
	"strings"

	"warpsched/internal/config"
	"warpsched/internal/energy"
)

// WaspResult is the scheduler-zoo head-to-head: execution time and
// dynamic energy for every synchronization kernel under GTO, CAWA and
// WaSP with and without BOWS, normalized to GTO. It answers the two
// questions the zoo exists for — does prefetch-mimicking priority
// grouping beat the paper's baselines on spin-heavy kernels, and does
// BOWS compose with it the way it composes with GTO/CAWA.
type WaspResult struct {
	GPUName string
	Kernels []string
	// Time[kernel][column] and Energy[kernel][column] follow Columns.
	Columns []string
	Time    map[string][]float64
	Energy  map[string][]float64
	// GmeanTime/GmeanEnergy are geometric means per column.
	GmeanTime   []float64
	GmeanEnergy []float64
	// WaSP records the knobs the WASP columns ran with.
	WaSP config.WaSP
}

// WaspSchedulers is the sweep's scheduler order: the paper's two
// strongest baselines, then the zoo contender.
var WaspSchedulers = []config.SchedulerKind{config.GTO, config.CAWA, config.WASP}

// WaspColumns is the bar order of the WaSP head-to-head figures.
var WaspColumns = []string{"GTO", "GTO+BOWS", "CAWA", "CAWA+BOWS", "WASP", "WASP+BOWS"}

// Wasp runs the WaSP-vs-baselines sweep on the Fermi machine: the sync
// suite under each of WaspSchedulers with and without BOWS, the same
// shape as the Figure 9 sweep but anchored at GTO (WaSP targets the
// strongest baselines, so LRR would only flatter it).
func Wasp(c Cfg) (*WaspResult, error) {
	gpu := c.fermi()
	r := &WaspResult{
		GPUName: gpu.Name,
		Columns: WaspColumns,
		Time:    map[string][]float64{},
		Energy:  map[string][]float64{},
		WaSP:    config.DefaultWaSP(),
	}
	coeff := energy.ByConfigName(gpu.Name)
	suite := c.syncSuite()
	var specs []Spec
	for _, k := range suite {
		for _, kind := range WaspSchedulers {
			for _, withBOWS := range []bool{false, true} {
				bows := bowsOff()
				if withBOWS {
					bows = config.DefaultBOWS()
				}
				sp := Spec{GPU: gpu, Sched: kind, BOWS: bows, DDOS: config.DefaultDDOS(), Kernel: k}
				if kind == config.WASP {
					sp.WaSP = r.WaSP
				}
				specs = append(specs, sp)
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
		for _, kind := range WaspSchedulers {
			for _, withBOWS := range []bool{false, true} {
				o := outs[idx]
				idx++
				res := o.Res
				if o.Err != nil {
					if res == nil {
						return nil, fmt.Errorf("wasp %s/%v: %w", k.Name, kind, o.Err)
					}
					// Watchdog abort: treat as "at least this many cycles".
					c.note("wasp %s %s: watchdog at %d cycles (lower bound)", k.Name, kind, res.Stats.Cycles)
				}
				times[col] = float64(res.Stats.Cycles)
				energies[col] = energy.Compute(coeff, &res.Stats).Total()
				c.note("wasp %s %s bows=%v: %d cycles", k.Name, kind, withBOWS, res.Stats.Cycles)
				col++
			}
		}
		// Normalize to GTO (column 0).
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

// col returns the index of the named column, or -1.
func (r *WaspResult) col(name string) int {
	for i, c := range r.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// TimeVs returns the geometric-mean execution-time ratio base/WASP (how
// many times faster WaSP is than the named baseline; >1 means WaSP
// wins).
func (r *WaspResult) TimeVs(base config.SchedulerKind) float64 {
	bi, wi := r.col(string(base)), r.col(string(config.WASP))
	if bi < 0 || wi < 0 || r.GmeanTime[wi] == 0 {
		return 0
	}
	return r.GmeanTime[bi] / r.GmeanTime[wi]
}

// BOWSSpeedup returns the geometric-mean speedup of base+BOWS over base
// within this sweep.
func (r *WaspResult) BOWSSpeedup(base config.SchedulerKind) float64 {
	bi, wi := r.col(string(base)), r.col(string(base)+"+BOWS")
	if bi < 0 || wi < 0 || r.GmeanTime[wi] == 0 {
		return 0
	}
	return r.GmeanTime[bi] / r.GmeanTime[wi]
}

// String renders the head-to-head tables in the harness's text format.
func (r *WaspResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "WaSP head-to-head — normalized execution time on %s (lower is better, GTO = 1.00; WASP %s)\n\n",
		r.GPUName, r.WaSP.Desc())
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

	fmt.Fprintf(&sb, "\nWaSP head-to-head — normalized dynamic energy on %s\n\n", r.GPUName)
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

	fmt.Fprintf(&sb, "\nWaSP time vs baselines: %.2fx vs GTO, %.2fx vs CAWA (>1 means WaSP faster)\n",
		r.TimeVs(config.GTO), r.TimeVs(config.CAWA))
	fmt.Fprintf(&sb, "BOWS speedup within sweep: %.2fx on GTO, %.2fx on CAWA, %.2fx on WASP\n",
		r.BOWSSpeedup(config.GTO), r.BOWSSpeedup(config.CAWA), r.BOWSSpeedup(config.WASP))
	sb.WriteString("WaSP reference (Joseph et al., arXiv 2404.06156): priority grouping buys most on cache-sensitive kernels;\n")
	sb.WriteString("spin-heavy kernels are expected to favor GTO/CAWA+BOWS — the point of running the head-to-head\n")
	return sb.String()
}

package exp

import (
	"fmt"
	"strings"

	"warpsched/internal/config"
	"warpsched/internal/energy"
	"warpsched/internal/stats"
)

// BarsSection is the normalized-bars derivation shared by Figure 9
// (Fermi) and Figure 15 (Pascal): execution time
// and dynamic energy for every synchronization kernel under each
// scheduler with and without BOWS, normalized to the first scheduler's
// baseline, plus the mean improvements the paper quotes and an issue-slot
// breakdown of where baseline GTO's cycles go.
type BarsSection struct {
	// Exp is the experiment tag: "fig9" or "fig15".
	Exp string
	// GPU is the machine configuration name the sweep ran on.
	GPU string
	// Kernels lists the benchmarks in the caller's order.
	Kernels []string
	// Columns is the bar order: each scheduler, then scheduler+BOWS.
	Columns []string
	// Time[kernel] and Energy[kernel] follow Columns, normalized to the
	// kernel's column-0 run.
	Time   map[string][]Bar
	Energy map[string][]Bar
	// GmeanTime and GmeanEnergy are per-column geometric means.
	GmeanTime   []float64
	GmeanEnergy []float64
	// Speedup and EnergySaving map a scheduler name to the geometric-mean
	// improvement its +BOWS column buys; HmeanSpeedup is the harmonic
	// mean of the per-kernel speedups over converged pairs.
	Speedup      map[string]float64
	HmeanSpeedup map[string]float64
	EnergySaving map[string]float64
	// Slots breaks down each kernel's baseline-GTO issue slots.
	Slots map[string]SlotBreakdown
}

// SlotBreakdown classifies a run's issue slots (one per scheduler per
// cycle, summed over all SMs) by what the scheduler did with them, plus
// how much of the issued work was synchronization: the spin-overhead
// view of Figure 2.
type SlotBreakdown struct {
	// Issue and Idle are the fractions of issue slots in which the
	// scheduler issued an instruction versus had no ready warp; they
	// sum to 1.
	Issue, Idle float64
	// SyncInstr is the fraction of issued thread instructions that were
	// synchronization operations — work a spin-free machine would not do.
	SyncInstr float64
}

// BarsLayout returns the normalized-bars columns: each of the paper's
// schedulers without and with adaptive BOWS, LRR's baseline being the
// normalization anchor.
func BarsLayout() []Column {
	var cols []Column
	for _, kind := range config.Schedulers {
		sp := Spec{Sched: kind, BOWS: bowsOff(), DDOS: config.DefaultDDOS()}
		cols = append(cols, Column{string(kind), sp})
		sp.BOWS = config.DefaultBOWS()
		cols = append(cols, Column{string(kind) + "+BOWS", sp})
	}
	return cols
}

// ExecEnergy runs the Figure 9/15 sweep (tag "fig9" or "fig15") on the
// given GPU configuration.
func ExecEnergy(c Cfg, gpu config.GPU, tag string) (*BarsSection, error) {
	cols := BarsLayout()
	kernels, runs, err := c.sweep(gpu, c.syncSuite(), cols, true)
	if err != nil {
		return nil, err
	}
	return DeriveBars(tag, kernels, cols, runs), nil
}

// DeriveBars derives a normalized-bars section from a BarsLayout run
// matrix.
func DeriveBars(tag string, kernels []string, cols []Column, runs [][]Run) *BarsSection {
	sec := &BarsSection{
		Exp: tag, GPU: runs[0][0].GPU, Kernels: kernels, Columns: labels(cols),
		Speedup: map[string]float64{}, HmeanSpeedup: map[string]float64{},
		EnergySaving: map[string]float64{}, Slots: map[string]SlotBreakdown{},
	}
	coeff := energy.ByConfigName(sec.GPU)
	sec.Time, sec.GmeanTime = normalize(kernels, len(cols), runs, cycles)
	sec.Energy, sec.GmeanEnergy = normalize(kernels, len(cols), runs, func(r Run) float64 {
		return energy.Compute(coeff, r.Stats).Total()
	})
	// Columns pair up as (scheduler, scheduler+BOWS).
	for i := 0; i+1 < len(cols); i += 2 {
		name := cols[i].Label
		var speedups []float64
		for ki := range kernels {
			if base, with := runs[ki][i], runs[ki][i+1]; !base.LowerBound && !with.LowerBound {
				speedups = append(speedups, cycles(base)/cycles(with))
			}
		}
		sec.Speedup[name] = ratio(sec.GmeanTime[i], sec.GmeanTime[i+1])
		sec.EnergySaving[name] = ratio(sec.GmeanEnergy[i], sec.GmeanEnergy[i+1])
		sec.HmeanSpeedup[name] = stats.Hmean(speedups)
	}
	for ci, col := range cols {
		if col.Sched != config.GTO || col.BOWS.Mode != config.BOWSOff {
			continue
		}
		for ki, k := range kernels {
			st := runs[ki][ci].Stats
			slots := float64(st.IssueCycles + st.IdleCycles)
			sec.Slots[k] = SlotBreakdown{
				Issue:     ratio(float64(st.IssueCycles), slots),
				Idle:      ratio(float64(st.IdleCycles), slots),
				SyncInstr: st.SyncInstrFraction(),
			}
		}
	}
	return sec
}

// String renders the time and energy tables in the harness's text format.
func (s *BarsSection) String() string {
	label := "Fig. 9"
	if s.Exp == "fig15" {
		label = "Fig. 15"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — normalized execution time on %s (lower is better, %s = 1.00)\n\n",
		label, s.GPU, s.Columns[0])
	sb.WriteString(barTable(s.Kernels, s.Columns, s.Time, s.GmeanTime))
	fmt.Fprintf(&sb, "\n%s — normalized dynamic energy on %s\n\n", label, s.GPU)
	sb.WriteString(barTable(s.Kernels, s.Columns, s.Energy, s.GmeanEnergy))

	fmt.Fprintf(&sb, "\nBOWS speedup: %.2fx vs LRR, %.2fx vs GTO, %.2fx vs CAWA\n",
		s.Speedup["LRR"], s.Speedup["GTO"], s.Speedup["CAWA"])
	fmt.Fprintf(&sb, "BOWS energy saving: %.2fx vs LRR, %.2fx vs GTO, %.2fx vs CAWA\n",
		s.EnergySaving["LRR"], s.EnergySaving["GTO"], s.EnergySaving["CAWA"])
	if s.Exp == "fig9" {
		sb.WriteString("paper (GTX480): speedup 2.2x/1.4x/1.5x and energy 2.3x/1.7x/1.6x vs LRR/GTO/CAWA\n")
	} else {
		sb.WriteString("paper (Pascal): speedup 1.9x/1.7x/1.5x vs LRR/GTO/CAWA\n")
	}
	return sb.String()
}

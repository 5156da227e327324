package exp

import (
	"fmt"
	"strings"

	"warpsched/internal/config"
	"warpsched/internal/energy"
	"warpsched/internal/stats"
)

// BarsSection is the normalized-bars derivation shared by Figure 9
// (Fermi), Figure 15 (Pascal) and the WaSP head-to-head: execution time
// and dynamic energy for every synchronization kernel under each
// scheduler with and without BOWS, normalized to the first scheduler's
// baseline, plus the mean improvements the paper quotes and an issue-slot
// breakdown of where baseline GTO's cycles go.
type BarsSection struct {
	// Exp is the experiment tag: "fig9", "fig15" or "wasp".
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

// WaspSchedulers is the WaSP head-to-head's scheduler order: the paper's
// two strongest baselines, then the zoo contender (LRR would only
// flatter it).
var WaspSchedulers = []config.SchedulerKind{config.GTO, config.CAWA, config.WASP}

// BarsLayout returns the normalized-bars columns for a scheduler list:
// each scheduler without and with adaptive BOWS, the first scheduler's
// baseline being the normalization anchor.
func BarsLayout(scheds []config.SchedulerKind) []Column {
	var cols []Column
	for _, kind := range scheds {
		sp := Spec{Sched: kind, BOWS: bowsOff(), DDOS: config.DefaultDDOS()}
		if kind == config.WASP {
			sp.WaSP = config.DefaultWaSP()
		}
		cols = append(cols, Column{string(kind), sp})
		sp.BOWS = config.DefaultBOWS()
		cols = append(cols, Column{string(kind) + "+BOWS", sp})
	}
	return cols
}

// ExecEnergy runs the Figure 9/15 sweep (tag "fig9" or "fig15") on the
// given GPU configuration.
func ExecEnergy(c Cfg, gpu config.GPU, tag string) (*BarsSection, error) {
	return c.bars(gpu, tag, config.Schedulers)
}

// Wasp runs the WaSP-vs-baselines sweep on the Fermi machine: the shape
// of the Figure 9 sweep, anchored at GTO. It answers the two questions
// the zoo exists for — does prefetch-mimicking priority grouping beat the
// paper's baselines on spin-heavy kernels, and does BOWS compose with it
// the way it composes with GTO/CAWA.
func Wasp(c Cfg) (*BarsSection, error) {
	return c.bars(c.fermi(), "wasp", WaspSchedulers)
}

func (c Cfg) bars(gpu config.GPU, tag string, scheds []config.SchedulerKind) (*BarsSection, error) {
	cols := BarsLayout(scheds)
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

// TimeVs returns the geometric-mean execution-time ratio of column base
// over column other (>1 means other is faster).
func (s *BarsSection) TimeVs(base, other string) float64 {
	var bi, oi int
	for i, c := range s.Columns {
		switch c {
		case base:
			bi = i
		case other:
			oi = i
		}
	}
	return ratio(s.GmeanTime[bi], s.GmeanTime[oi])
}

// String renders the time and energy tables in the harness's text format.
func (s *BarsSection) String() string {
	label, knobs := "Fig. 9", ""
	switch s.Exp {
	case "fig15":
		label = "Fig. 15"
	case "wasp":
		label, knobs = "WaSP head-to-head", "; WASP "+config.DefaultWaSP().Desc()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — normalized execution time on %s (lower is better, %s = 1.00%s)\n\n",
		label, s.GPU, s.Columns[0], knobs)
	sb.WriteString(barTable(s.Kernels, s.Columns, s.Time, s.GmeanTime))
	fmt.Fprintf(&sb, "\n%s — normalized dynamic energy on %s\n\n", label, s.GPU)
	sb.WriteString(barTable(s.Kernels, s.Columns, s.Energy, s.GmeanEnergy))

	if s.Exp == "wasp" {
		fmt.Fprintf(&sb, "\nWaSP time vs baselines: %.2fx vs GTO, %.2fx vs CAWA (>1 means WaSP faster)\n",
			s.TimeVs("GTO", "WASP"), s.TimeVs("CAWA", "WASP"))
		fmt.Fprintf(&sb, "BOWS speedup within sweep: %.2fx on GTO, %.2fx on CAWA, %.2fx on WASP\n",
			s.Speedup["GTO"], s.Speedup["CAWA"], s.Speedup["WASP"])
		sb.WriteString("WaSP reference (Joseph et al., arXiv 2404.06156): priority grouping buys most on cache-sensitive kernels;\n")
		sb.WriteString("spin-heavy kernels are expected to favor GTO/CAWA+BOWS — the point of running the head-to-head\n")
		return sb.String()
	}
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

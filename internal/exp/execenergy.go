package exp

import (
	"fmt"

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

// Tables lays out the section: the time and energy bars, the BOWS
// improvement over each baseline and baseline GTO's issue slots.
func (s *BarsSection) Tables() []Table {
	label, paper := "Fig. 9", "paper (GTX480): speedup 2.2×/1.4×/1.5× and energy saving 2.3×/1.7×/1.6× vs LRR/GTO/CAWA;"
	if s.Exp == "fig15" {
		label, paper = "Fig. 15", "paper (Pascal): speedup 1.9×/1.7×/1.5× vs LRR/GTO/CAWA;"
	}
	time := barTable(fmt.Sprintf("%s — normalized execution time on %s (lower is better, %s = 1.00)", label, s.GPU, s.Columns[0]),
		s.Kernels, s.Columns, s.Time, s.GmeanTime)
	time.Figure = s.Exp + "-time.svg"
	energy := barTable(fmt.Sprintf("%s — normalized dynamic energy on %s", label, s.GPU),
		s.Kernels, s.Columns, s.Energy, s.GmeanEnergy)
	energy.Note = []string{"energy is recomputed offline from each run's event counts through internal/energy"}
	energy.Figure = s.Exp + "-energy.svg"
	bows := Table{
		Title:  label + " — BOWS improvement over each baseline scheduler",
		Header: []string{"baseline", "gmean speedup", "hmean speedup", "gmean energy saving"},
		Note:   []string{paper, "the hmean covers the kernels whose baseline and BOWS runs both finished"},
	}
	for i := 0; i+1 < len(s.Columns); i += 2 {
		base := s.Columns[i]
		bows.add(base, f2(s.Speedup[base]), f2(s.HmeanSpeedup[base]), f2(s.EnergySaving[base]))
	}
	slots := Table{
		Title:  label + " — issue-slot breakdown under baseline GTO (fractions of all SMs' scheduler issue slots)",
		Header: []string{"kernel", "issue", "idle", "sync instr share"},
		Note:   []string{"the sync share of issued thread instructions is the spin overhead BOWS attacks"},
	}
	for _, k := range s.Kernels {
		sl := s.Slots[k]
		slots.add(k, pct(sl.Issue), pct(sl.Idle), pct(sl.SyncInstr))
	}
	return []Table{time, energy, bows, slots}
}

// String renders the section's tables in the harness's text format.
func (s *BarsSection) String() string { return text(s.Tables()) }

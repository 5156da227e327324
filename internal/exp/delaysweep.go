package exp

import (
	"fmt"

	"warpsched/internal/config"
	"warpsched/internal/stats"
)

// DelaySection is the derived Figures 10-13 content: the GTO+BOWS
// delay-limit sweep with its side metrics.
type DelaySection struct {
	// Kernels lists the benchmarks in the caller's order.
	Kernels []string
	// Columns is GTO, BOWS(0), ..., BOWS(Adaptive).
	Columns []string
	// Time, Instrs and MemTrans are execution time, dynamic thread
	// instructions and memory transactions per kernel, normalized to GTO;
	// the Gmean slices are their per-column geometric means.
	Time, Instrs, MemTrans                map[string][]Bar
	GmeanTime, GmeanInstrs, GmeanMemTrans []float64
	// BackedOff[kernel] is the average backed-off warp fraction and
	// SIMD[kernel] the raw SIMD efficiency, per column.
	BackedOff, SIMD map[string][]float64
	// Sync[kernel] holds the per-lane lock/wait outcome counts per column
	// (Fig. 12).
	Sync map[string][]stats.SyncEvents
}

// DelayLimits is the paper's Figure 10 sweep.
var DelayLimits = []int64{0, 500, 1000, 3000, 5000}

// DelayLayout returns the Figures 10-13 columns: the GTO baseline,
// GTO+BOWS at each fixed delay limit, and GTO+BOWS with the adaptive
// controller, all with DDOS-driven detection.
func DelayLayout() []Column {
	on := func(label string, b config.BOWS) Column {
		return Column{label, Spec{Sched: config.GTO, BOWS: b, DDOS: config.DefaultDDOS()}}
	}
	cols := []Column{on("GTO", bowsOff())}
	for _, d := range DelayLimits {
		cols = append(cols, on(fmt.Sprintf("BOWS(%d)", d), config.FixedBOWS(d)))
	}
	return append(cols, on("BOWS(Adaptive)", config.DefaultBOWS()))
}

// DelaySweep runs the Figures 10-13 sweep.
func DelaySweep(c Cfg) (*DelaySection, error) {
	cols := DelayLayout()
	kernels, runs, err := c.sweep(c.fermi(), c.syncSuite(), cols, false)
	if err != nil {
		return nil, err
	}
	return DeriveDelay(kernels, cols, runs), nil
}

// DeriveDelay derives the delay-limit section from a DelayLayout run
// matrix.
func DeriveDelay(kernels []string, cols []Column, runs [][]Run) *DelaySection {
	sec := &DelaySection{
		Kernels: kernels, Columns: labels(cols),
		BackedOff: map[string][]float64{}, SIMD: map[string][]float64{},
		Sync: map[string][]stats.SyncEvents{},
	}
	sec.Time, sec.GmeanTime = normalize(kernels, len(cols), runs, cycles)
	sec.Instrs, sec.GmeanInstrs = normalize(kernels, len(cols), runs,
		func(r Run) float64 { return float64(r.Stats.ThreadInstrs) })
	sec.MemTrans, sec.GmeanMemTrans = normalize(kernels, len(cols), runs,
		func(r Run) float64 { return float64(r.Stats.Mem.Transactions) })
	for ki, k := range kernels {
		for _, r := range runs[ki] {
			sec.BackedOff[k] = append(sec.BackedOff[k], r.Stats.BackedOffFraction())
			sec.SIMD[k] = append(sec.SIMD[k], r.Stats.SIMDEfficiency())
			sec.Sync[k] = append(sec.Sync[k], r.Stats.Sync)
		}
	}
	return sec
}

// Tables lays out the Figures 10-13 tables.
func (s *DelaySection) Tables() []Table {
	time := barTable("Fig. 10 — normalized execution time under GTO+BOWS at fixed/adaptive delay limits (GTO = 1.00)",
		s.Kernels, s.Columns, s.Time, s.GmeanTime)
	time.Note = []string{"paper: BOWS improves over GTO across limits; very large limits hurt TSP (Fig. 10)"}
	time.Figure = "delaysweep-time.svg"
	backedOff := pctTable("Fig. 11 — average fraction of resident warps in the backed-off state", s.Kernels, s.Columns, s.BackedOff)
	backedOff.Note = []string{"paper: backed-off share grows with the delay limit once it exceeds a per-benchmark threshold (Fig. 11)"}
	sync := syncTable("Fig. 12 — lock acquire / wait exit outcome distribution (per-lane attempts, normalized to the GTO bar's total)",
		[]string{"kernel", "column", "success", "interwarp-fail", "intrawarp-fail", "wait-ok", "wait-fail", "total/GTO"},
		s.Kernels, s.Columns, s.Sync)
	sync.Note = []string{"paper: BOWS sharply cuts failed acquires (e.g. 10.8× fewer lock failures on HT vs GTO)"}
	instrs := barTable("Fig. 13a — normalized dynamic (thread) instruction count (GTO = 1.00)", s.Kernels, s.Columns, s.Instrs, s.GmeanInstrs)
	instrs.Note = []string{"paper: BOWS reduces dynamic instructions 2.1× on average vs GTO"}
	mem := barTable("Fig. 13b — normalized memory transactions (GTO = 1.00)", s.Kernels, s.Columns, s.MemTrans, s.GmeanMemTrans)
	mem.Note = []string{"paper: BOWS reduces memory transactions ~19% vs GTO"}
	simd := pctTable("Fig. 13c — SIMD efficiency", s.Kernels, s.Columns, s.SIMD)
	simd.Note = []string{"paper: BOWS improves SIMD efficiency on HT (3.4×) and ATM (1.85×) vs GTO"}
	return []Table{time, backedOff, sync, instrs, mem, simd}
}

// String renders the section's tables in the harness's text format.
func (s *DelaySection) String() string { return text(s.Tables()) }

package exp

import (
	"fmt"
	"strings"

	"warpsched/internal/config"
	"warpsched/internal/stats"
)

// DelayPoint is one bar of Figures 10-13: a kernel under GTO+BOWS at a
// given back-off delay limit (or plain GTO / adaptive BOWS).
type DelayPoint struct {
	Cycles       int64
	ThreadInstrs int64
	MemTrans     int64
	SIMD         float64
	BackedOff    float64 // average fraction of resident warps backed off
	Sync         stats.SyncEvents
	FinalLimit   int64
}

// DelaySweepResult holds the shared sweep behind Figures 10, 11, 12, 13.
type DelaySweepResult struct {
	Kernels []string
	Columns []string // GTO, BOWS(0), BOWS(500), ..., BOWS(Adaptive)
	Points  map[string][]DelayPoint
}

// DelayLimits is the paper's Figure 10 sweep.
var DelayLimits = []int64{0, 500, 1000, 3000, 5000}

// DelaySweep runs the Figures 10-13 sweep: GTO baseline, GTO+BOWS at
// fixed delay limits, and GTO+BOWS with the adaptive controller, all with
// DDOS-driven detection.
func DelaySweep(c Cfg) (*DelaySweepResult, error) {
	gpu := c.fermi()
	r := &DelaySweepResult{Points: map[string][]DelayPoint{}}
	r.Columns = []string{"GTO"}
	for _, d := range DelayLimits {
		r.Columns = append(r.Columns, fmt.Sprintf("BOWS(%d)", d))
	}
	r.Columns = append(r.Columns, "BOWS(Adaptive)")

	// Per kernel: GTO baseline, each fixed limit, then adaptive.
	bowsCols := []config.BOWS{bowsOff()}
	for _, d := range DelayLimits {
		bowsCols = append(bowsCols, config.FixedBOWS(d))
	}
	bowsCols = append(bowsCols, config.DefaultBOWS())

	suite := c.syncSuite()
	var specs []Spec
	for _, k := range suite {
		for _, bows := range bowsCols {
			specs = append(specs, Spec{GPU: gpu, Sched: config.GTO, BOWS: bows, DDOS: config.DefaultDDOS(), Kernel: k})
		}
	}
	outs := c.runAll(specs)
	if err := firstErr(outs); err != nil {
		return nil, err
	}
	idx := 0
	for _, k := range suite {
		r.Kernels = append(r.Kernels, k.Name)
		var pts []DelayPoint
		for _, bows := range bowsCols {
			res := outs[idx].Res
			idx++
			var limit int64
			for _, fl := range res.FinalDelayLimits {
				if fl > limit {
					limit = fl
				}
			}
			pts = append(pts, DelayPoint{
				Cycles:       res.Stats.Cycles,
				ThreadInstrs: res.Stats.ThreadInstrs,
				MemTrans:     res.Stats.Mem.Transactions,
				SIMD:         res.Stats.SIMDEfficiency(),
				BackedOff:    res.Stats.BackedOffFraction(),
				Sync:         res.Stats.Sync,
				FinalLimit:   limit,
			})
			c.note("delaysweep %s %s: %d cycles", k.Name, bows.Mode, res.Stats.Cycles)
		}
		r.Points[k.Name] = pts
	}
	return r, nil
}

// String renders the Figures 10-13 tables in the harness's text format.
func (r *DelaySweepResult) String() string {
	var sb strings.Builder

	sb.WriteString("Fig. 10 — normalized execution time under GTO+BOWS at fixed/adaptive delay limits (GTO = 1.00)\n\n")
	t := &table{header: append([]string{"kernel"}, r.Columns...)}
	var gm = make([][]float64, len(r.Columns))
	for _, k := range r.Kernels {
		pts := r.Points[k]
		base := float64(pts[0].Cycles)
		row := []string{k}
		for i, p := range pts {
			v := float64(p.Cycles) / base
			row = append(row, f2(v))
			gm[i] = append(gm[i], v)
		}
		t.add(row...)
	}
	row := []string{"gmean"}
	for _, vs := range gm {
		row = append(row, f2(gmean(vs)))
	}
	t.add(row...)
	sb.WriteString(t.String())
	sb.WriteString("paper: BOWS improves over GTO across limits; very large limits hurt TSP (Fig. 10)\n")

	sb.WriteString("\nFig. 11 — average fraction of resident warps in the backed-off state\n\n")
	t = &table{header: append([]string{"kernel"}, r.Columns...)}
	for _, k := range r.Kernels {
		row := []string{k}
		for _, p := range r.Points[k] {
			row = append(row, pct(p.BackedOff))
		}
		t.add(row...)
	}
	sb.WriteString(t.String())
	sb.WriteString("paper: backed-off share grows with the delay limit once it exceeds a per-benchmark threshold (Fig. 11)\n")

	sb.WriteString("\nFig. 12 — lock acquire / wait exit outcome distribution (per-lane attempts, normalized to the GTO bar's total)\n\n")
	t = &table{header: []string{"kernel", "column", "success", "interwarp-fail", "intrawarp-fail", "wait-ok", "wait-fail", "total/GTO"}}
	for _, k := range r.Kernels {
		base := float64(r.Points[k][0].Sync.LockAttempts() + r.Points[k][0].Sync.WaitAttempts())
		if base == 0 {
			base = 1
		}
		for i, p := range r.Points[k] {
			tot := float64(p.Sync.LockAttempts() + p.Sync.WaitAttempts())
			t.add(k, r.Columns[i],
				fmt.Sprintf("%d", p.Sync.LockSuccess),
				fmt.Sprintf("%d", p.Sync.InterWarpFail),
				fmt.Sprintf("%d", p.Sync.IntraWarpFail),
				fmt.Sprintf("%d", p.Sync.WaitExitSuccess),
				fmt.Sprintf("%d", p.Sync.WaitExitFail),
				f2(tot/base))
		}
	}
	sb.WriteString(t.String())
	sb.WriteString("paper: BOWS sharply cuts failed acquires (e.g. 10.8x fewer lock failures on HT vs GTO)\n")

	sb.WriteString("\nFig. 13a — normalized dynamic (thread) instruction count (GTO = 1.00)\n\n")
	sb.WriteString(r.normTable(func(p DelayPoint) float64 { return float64(p.ThreadInstrs) }))
	sb.WriteString("paper: BOWS reduces dynamic instructions 2.1x on average vs GTO\n")

	sb.WriteString("\nFig. 13b — normalized memory transactions (GTO = 1.00)\n\n")
	sb.WriteString(r.normTable(func(p DelayPoint) float64 { return float64(p.MemTrans) }))
	sb.WriteString("paper: BOWS reduces memory transactions ~19% vs GTO\n")

	sb.WriteString("\nFig. 13c — SIMD efficiency\n\n")
	t = &table{header: append([]string{"kernel"}, r.Columns...)}
	for _, k := range r.Kernels {
		row := []string{k}
		for _, p := range r.Points[k] {
			row = append(row, pct(p.SIMD))
		}
		t.add(row...)
	}
	sb.WriteString(t.String())
	sb.WriteString("paper: BOWS improves SIMD efficiency on HT (3.4x) and ATM (1.85x) vs GTO\n")

	sb.WriteString("\nAdaptive final delay limits per kernel: ")
	for i, k := range r.Kernels {
		if i > 0 {
			sb.WriteString(", ")
		}
		pts := r.Points[k]
		fmt.Fprintf(&sb, "%s=%d", k, pts[len(pts)-1].FinalLimit)
	}
	sb.WriteByte('\n')
	return sb.String()
}

func (r *DelaySweepResult) normTable(metric func(DelayPoint) float64) string {
	t := &table{header: append([]string{"kernel"}, r.Columns...)}
	gm := make([][]float64, len(r.Columns))
	for _, k := range r.Kernels {
		pts := r.Points[k]
		base := metric(pts[0])
		if base == 0 {
			base = 1
		}
		row := []string{k}
		for i, p := range pts {
			v := metric(p) / base
			row = append(row, f2(v))
			gm[i] = append(gm[i], v)
		}
		t.add(row...)
	}
	row := []string{"gmean"}
	for _, vs := range gm {
		row = append(row, f2(gmean(vs)))
	}
	t.add(row...)
	return t.String()
}

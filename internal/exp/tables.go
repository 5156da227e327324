package exp

import (
	"fmt"
	"strings"

	"warpsched/internal/config"
)

// Table2Result renders the simulated configurations (paper Table II).
type Table2Result struct {
	Fermi  config.GPU
	Pascal config.GPU
	BOWS   config.BOWS
	DDOS   config.DDOS
}

// Table2 collects the configuration constants.
func Table2(Cfg) (*Table2Result, error) {
	return &Table2Result{
		Fermi:  config.GTX480(),
		Pascal: config.GTX1080Ti(),
		BOWS:   config.DefaultBOWS(),
		DDOS:   config.DefaultDDOS(),
	}, nil
}

// String renders Table II in the harness's text format.
func (r *Table2Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table II — configurations\n\n")
	sb.WriteString("· BOWS specific\n")
	fmt.Fprintf(&sb, "  baseline schedulers: GTO (age rotation every 50,000 cycles), LRR, CAWA\n")
	fmt.Fprintf(&sb, "  window T=%d cycles, delay step=%d, min limit=%d, max limit=%d, FRAC1=%.1f, FRAC2=%.1f\n",
		r.BOWS.WindowCycles, r.BOWS.DelayStep, r.BOWS.MinLimit, r.BOWS.MaxLimit, r.BOWS.Frac1, r.BOWS.Frac2)
	sb.WriteString("  (paper lists max limit 1000, inconsistent with its 14-bit delay counters; we use 10000 — see DESIGN.md)\n")
	sb.WriteString("· DDOS specific\n")
	fmt.Fprintf(&sb, "  hashing=%s, history width m=k=%d, history length l=%d, confidence threshold t=%d, time sharing=%v\n",
		r.DDOS.Hash, r.DDOS.PathBits, r.DDOS.HistoryLen, r.DDOS.ConfidenceThreshold, r.DDOS.TimeShare)
	sb.WriteString("· Baseline GPUs\n")
	t := &Table{Header: []string{"parameter", "GTX480 (Fermi)", "GTX1080Ti (Pascal)"}}
	f, p := r.Fermi, r.Pascal
	t.add("SMs", fmt.Sprint(f.NumSMs), fmt.Sprint(p.NumSMs))
	t.add("threads/SM", fmt.Sprint(f.WarpsPerSM*32), fmt.Sprint(p.WarpsPerSM*32))
	t.add("warp schedulers/SM", fmt.Sprint(f.SchedulersPerSM), fmt.Sprint(p.SchedulersPerSM))
	t.add("L1 data cache", fmt.Sprintf("%d KB, %d-way", f.Mem.L1KB, f.Mem.L1Assoc), fmt.Sprintf("%d KB, %d-way", p.Mem.L1KB, p.Mem.L1Assoc))
	t.add("L2 cache (total)", fmt.Sprintf("%d KB, %d-way", f.Mem.L2KB, f.Mem.L2Assoc), fmt.Sprintf("%d KB, %d-way", p.Mem.L2KB, p.Mem.L2Assoc))
	t.add("core clock (MHz)", fmt.Sprint(f.CoreClockMHz), fmt.Sprint(p.CoreClockMHz))
	t.add("memory clock (MHz)", fmt.Sprint(f.MemClockMHz), fmt.Sprint(p.MemClockMHz))
	sb.WriteString(t.String())
	return sb.String()
}

// Table3Result computes the hardware budget of Table III from the active
// configuration.
type Table3Result struct {
	Warps int
	DDOS  config.DDOS

	HistoryBitsPerWarp int
	HistoryBitsTotal   int
	SIBPTBits          int
	PendingDelayBits   int
	BackedOffQueueBits int
}

// Table3 computes implementation costs for the Fermi SM.
func Table3(Cfg) (*Table3Result, error) {
	g := config.GTX480()
	d := config.DefaultDDOS()
	r := &Table3Result{Warps: g.WarpsPerSM, DDOS: d}
	// Path history: l entries of m bits; value history: 2l entries of k
	// bits (two source operands per setp record).
	r.HistoryBitsPerWarp = d.HistoryLen*d.PathBits + 2*d.HistoryLen*d.ValueBits
	r.HistoryBitsTotal = r.HistoryBitsPerWarp * g.WarpsPerSM
	// SIB-PT entry: 32-bit PC tag (paper stores a compressed tag; it
	// budgets 35 bits/entry total) + confidence + prediction.
	r.SIBPTBits = d.TableSize * 35
	// 14-bit pending delay counters (up to 10,000 cycles) per warp.
	r.PendingDelayBits = 14 * g.WarpsPerSM
	// Backed-off queue: one 5-bit (log2 48 rounded up... 6 for 48 warps;
	// the paper budgets 5) slot id per warp.
	r.BackedOffQueueBits = 5 * g.WarpsPerSM
	return r, nil
}

// String renders Table III in the harness's text format.
func (r *Table3Result) String() string {
	t := &Table{
		Title:  "Table III — DDOS and BOWS implementation costs per SM (GTX480, 48 warps)",
		Header: []string{"component", "storage", "paper"},
	}
	t.add("DDOS history registers",
		fmt.Sprintf("%d warps x %d bits = %d bits", r.Warps, r.HistoryBitsPerWarp, r.HistoryBitsTotal),
		"48 x 192 bits = 9216 bits")
	t.add("DDOS SIB-PT",
		fmt.Sprintf("%d entries x 35 bits = %d bits", r.DDOS.TableSize, r.SIBPTBits),
		"16 x 35 = 560 bits")
	t.add("DDOS comparison", "8-bit comparator + 8:1 8-bit mux (shared per SM)", "same")
	t.add("DDOS hashing", "8 4-bit XOR trees (shared per SM)", "same")
	t.add("DDOS FSM", fmt.Sprintf("%d x 4-state FSM", r.Warps), "48 x 4-state")
	t.add("BOWS pending delay counters",
		fmt.Sprintf("%d x 14 bits = %d bits", r.Warps, r.PendingDelayBits), "672 bits")
	t.add("BOWS backed-off queue",
		fmt.Sprintf("%d x 5 bits = %d bits", r.Warps, r.BackedOffQueueBits), "240 bits")
	t.add("BOWS arbitration/adaptive logic", "reuses idle functional units for the divide", "same")
	return t.String()
}

package exp

import (
	"fmt"
	"math"

	"warpsched/internal/config"
	"warpsched/internal/cpuref"
	"warpsched/internal/kernels"
)

// Fig1Result reproduces the motivation figure: hashtable insertion across
// bucket counts on the simulated GPU versus a serial CPU cost model
// (1b), the dynamic-instruction overhead split (1c), the memory-traffic
// split (1d), and SIMD efficiency for a single warp versus a full launch
// (1e).
type Fig1Result struct {
	Buckets []int
	GPUms   []float64
	CPUms   []float64
	// SyncInstrFrac / SyncMemFrac per bucket count (1c/1d).
	SyncInstrFrac []float64
	SyncMemFrac   []float64
	// SIMD efficiency: single warp vs multiple warps (1e).
	SIMDSingle []float64
	SIMDMulti  []float64
	Items      int
}

// fig1Specs lists the motivation experiment's runs, with its item count:
// two per bucket count of Fig16Buckets, the full launch and a single-warp
// launch for the SIMD comparison (1e), the latter with items scaled down
// so the run stays small.
func fig1Specs(c Cfg) (items int, specs []Spec) {
	gpu := c.fermi()
	items, ctas, ctaThreads := 12288, 48, 128
	if c.Quick {
		items, ctas, ctaThreads = 6144, 24, 128
	}
	for _, buckets := range Fig16Buckets {
		k := kernels.NewHashTable(kernels.HashTableConfig{
			Items: items, Buckets: buckets, CTAs: ctas, CTAThreads: ctaThreads,
		})
		k1 := kernels.NewHashTable(kernels.HashTableConfig{
			Items: items / 8, Buckets: buckets, CTAs: 1, CTAThreads: 32,
		})
		specs = append(specs,
			Spec{GPU: gpu, Sched: config.GTO, BOWS: bowsOff(), DDOS: config.DefaultDDOS(), Kernel: k},
			Spec{GPU: gpu, Sched: config.GTO, BOWS: bowsOff(), DDOS: config.DefaultDDOS(), Kernel: k1})
	}
	return items, specs
}

// Fig1 runs the motivation experiment.
func Fig1(c Cfg) (*Fig1Result, error) {
	items, specs := fig1Specs(c)
	gpu := specs[0].GPU
	cpu := cpuref.DefaultCPU()
	r := &Fig1Result{Items: items}
	runs, err := c.runs(specs, false)
	if err != nil {
		return nil, err
	}
	for i, buckets := range Fig16Buckets {
		run, run1 := runs[2*i], runs[2*i+1]
		// CPU reference uses the same key stream length.
		keys := make([]uint32, items)
		for j := range keys {
			keys[j] = uint32(j * 2654435761) // any stream; cost model only
		}
		cres := cpu.RunHashtable(keys, buckets)

		r.Buckets = append(r.Buckets, buckets)
		r.GPUms = append(r.GPUms, float64(run.Cycles)/(float64(gpu.CoreClockMHz)*1000))
		r.CPUms = append(r.CPUms, cres.Millis)
		r.SyncInstrFrac = append(r.SyncInstrFrac, run.Stats.SyncInstrFraction())
		r.SyncMemFrac = append(r.SyncMemFrac, run.Stats.SyncMemFraction())
		r.SIMDSingle = append(r.SIMDSingle, run1.Stats.SIMDEfficiency())
		r.SIMDMulti = append(r.SIMDMulti, run.Stats.SIMDEfficiency())
		c.note("fig1 buckets=%d: gpu=%d cycles cpu=%.3fms", buckets, run.Cycles, cres.Millis)
	}
	return r, nil
}

// String renders the Figure 1 table in the harness's text format.
func (r *Fig1Result) String() string {
	t := &Table{
		Title: fmt.Sprintf("Fig. 1 — fine-grained synchronization on GPUs (hashtable, %d insertions)", r.Items),
		Header: []string{"buckets", "GPU ms (1b)", "CPU ms (1b)", "log10 GPU/CPU",
			"sync instr (1c)", "sync mem (1d)", "SIMD 1-warp (1e)", "SIMD multi (1e)"},
		Note: []string{
			"paper: GPU beats the serial CPU at low contention (9.77x at 4096 buckets on GTX1080);",
			"       sync overhead 61-98% of instructions and 41-96% of memory traffic at high contention;",
			"       SIMD efficiency 87-99% single-warp but 16-47% with many warps",
		},
	}
	for i, b := range r.Buckets {
		ratio := math.Log10(r.GPUms[i] / r.CPUms[i])
		t.add(fmt.Sprintf("%d", b), fmt.Sprintf("%.3f", r.GPUms[i]), fmt.Sprintf("%.3f", r.CPUms[i]),
			f2(ratio), pct(r.SyncInstrFrac[i]), pct(r.SyncMemFrac[i]),
			pct(r.SIMDSingle[i]), pct(r.SIMDMulti[i]))
	}
	return t.String()
}

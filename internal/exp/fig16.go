package exp

import (
	"fmt"

	"warpsched/internal/config"
	"warpsched/internal/kernels"
)

// Fig16Result reproduces Figure 16: sensitivity to contention via a
// hashtable bucket sweep. For each bucket count it reports BOWS's speedup
// over GTO (16a) and BOWS's dynamic instruction count normalized to GTO
// next to the "ideal blocking" instruction count — the useful-instruction
// count a perfect queuing lock (an idealized HQL) would execute (16b).
type Fig16Result struct {
	Buckets    []int
	Speedup    []float64
	BOWSInstr  []float64 // normalized to GTO
	IdealInstr []float64 // measured with the blocking queue-lock unit
	IdealSpeed []float64 // queue-lock speedup over GTO
}

// Fig16Buckets is the paper's contention sweep.
var Fig16Buckets = []int{128, 256, 512, 1024, 2048, 4096}

// Fig16Specs lists the contention sweep's runs: per bucket count of
// Fig16Buckets, the GTO baseline, GTO+BOWS, and ideal blocking (the
// paper's HQL proxy, Fig. 16b) — the same kernel on the machine with the
// blocking queue-lock unit enabled, where acquires park at the L2 and
// never retry.
func Fig16Specs(c Cfg) []Spec {
	gpu := c.fermi()
	// Same machine-saturating geometry as the suite's HT instance.
	items, ctas, ctaThreads := 12288, 48, 128
	if c.Quick {
		items, ctas, ctaThreads = 6144, 24, 128
	}
	qGPU := gpu
	qGPU.Mem.QueueLocks = true
	var specs []Spec
	for _, buckets := range Fig16Buckets {
		k := kernels.NewHashTable(kernels.HashTableConfig{
			Items: items, Buckets: buckets, CTAs: ctas, CTAThreads: ctaThreads,
		})
		specs = append(specs,
			Spec{GPU: gpu, Sched: config.GTO, BOWS: bowsOff(), DDOS: config.DefaultDDOS(), Kernel: k},
			Spec{GPU: gpu, Sched: config.GTO, BOWS: config.DefaultBOWS(), DDOS: config.DefaultDDOS(), Kernel: k},
			Spec{GPU: qGPU, Sched: config.GTO, BOWS: bowsOff(), DDOS: config.DefaultDDOS(), Kernel: k})
	}
	return specs
}

// Fig16 runs the contention sweep.
func Fig16(c Cfg) (*Fig16Result, error) {
	r := &Fig16Result{}
	runs, err := c.runs(Fig16Specs(c), false)
	if err != nil {
		return nil, err
	}
	for i, buckets := range Fig16Buckets {
		base, bows, ideal := runs[3*i], runs[3*i+1], runs[3*i+2]
		r.Buckets = append(r.Buckets, buckets)
		r.Speedup = append(r.Speedup, float64(base.Cycles)/float64(bows.Cycles))
		r.BOWSInstr = append(r.BOWSInstr, float64(bows.Stats.ThreadInstrs)/float64(base.Stats.ThreadInstrs))
		r.IdealInstr = append(r.IdealInstr, float64(ideal.Stats.ThreadInstrs)/float64(base.Stats.ThreadInstrs))
		r.IdealSpeed = append(r.IdealSpeed, float64(base.Cycles)/float64(ideal.Cycles))
		c.note("fig16 buckets=%d: GTO=%d BOWS=%d ideal=%d cycles", buckets, base.Cycles, bows.Cycles, ideal.Cycles)
	}
	return r, nil
}

// String renders the Figure 16 table in the harness's text format.
func (r *Fig16Result) String() string {
	t := &Table{
		Title:  "Fig. 16 — sensitivity to contention (hashtable; fewer buckets = higher contention)",
		Header: []string{"buckets", "BOWS speedup over GTO (16a)", "BOWS inst. count / GTO (16b)", "ideal blocking inst. count / GTO", "ideal blocking speedup"},
		Note: []string{
			"paper: speedup ~5x at 128 buckets down to ~1.2x at 4096; instruction savings 3.7x→1.3x;",
			"       the gap to ideal blocking narrows as buckets increase",
		},
	}
	for i, b := range r.Buckets {
		t.add(fmt.Sprintf("%d", b), f2(r.Speedup[i]), f2(r.BOWSInstr[i]), f2(r.IdealInstr[i]), f2(r.IdealSpeed[i]))
	}
	return t.String()
}

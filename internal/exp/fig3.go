package exp

import (
	"fmt"

	"warpsched/internal/config"
	"warpsched/internal/kernels"
)

// Fig3Result reproduces Figure 3: the hashtable kernel augmented with the
// software back-off delay loop of Figure 3a, swept over DELAY_FACTOR.
// The delay loop burns issue slots, so on most contention levels software
// back-off *hurts* — the observation motivating a hardware mechanism.
type Fig3Result struct {
	Buckets []int
	Factors []int
	// Cycles[bucketIdx][factorIdx].
	Cycles [][]int64
}

// Fig3Factors is the paper's sweep (0 = no delay code).
var Fig3Factors = []int{0, 50, 100, 500, 1000}

// fig3Specs lists the software back-off sweep's runs, bucket-major over
// Fig3Factors, with the bucket counts they cover.
func fig3Specs(c Cfg) (buckets []int, specs []Spec) {
	gpu := c.fermi()
	items, ctas, ctaThreads := 8192, 16, 128
	buckets = []int{128, 512, 2048}
	if c.Quick {
		items, ctas, ctaThreads = 2048, 4, 64
		buckets = []int{128, 512}
	}
	for _, bk := range buckets {
		for _, df := range Fig3Factors {
			k := kernels.NewHashTable(kernels.HashTableConfig{
				Items: items, Buckets: bk, CTAs: ctas, CTAThreads: ctaThreads,
				DelayFactor: df,
			})
			specs = append(specs, Spec{GPU: gpu, Sched: config.GTO, BOWS: bowsOff(), DDOS: config.DefaultDDOS(), Kernel: k})
		}
	}
	return buckets, specs
}

// Fig3 runs the software back-off study.
func Fig3(c Cfg) (*Fig3Result, error) {
	buckets, specs := fig3Specs(c)
	runs, err := c.runs(specs, false)
	if err != nil {
		return nil, err
	}
	r := &Fig3Result{Factors: Fig3Factors}
	i := 0
	for _, bk := range buckets {
		var row []int64
		for _, df := range Fig3Factors {
			cyc := runs[i].Cycles
			i++
			row = append(row, cyc)
			c.note("fig3 buckets=%d delay=%d: %d cycles", bk, df, cyc)
		}
		r.Buckets = append(r.Buckets, bk)
		r.Cycles = append(r.Cycles, row)
	}
	return r, nil
}

// String renders the Figure 3 table in the harness's text format.
func (r *Fig3Result) String() string {
	t := &Table{
		Title:  "Fig. 3 — software back-off delay on the hashtable (execution cycles; normalized to no-delay)",
		Header: []string{"buckets"},
		Note: []string{
			"paper: adding a software back-off delay degrades performance on recent GPUs except at",
			"       very high contention — wasted issue slots outweigh the memory-traffic savings",
		},
	}
	for _, f := range r.Factors {
		t.Header = append(t.Header, fmt.Sprintf("factor=%d", f))
	}
	for i, bk := range r.Buckets {
		row := []string{fmt.Sprintf("%d", bk)}
		base := float64(r.Cycles[i][0])
		for _, cyc := range r.Cycles[i] {
			row = append(row, fmt.Sprintf("%d (%.2fx)", cyc, float64(cyc)/base))
		}
		t.add(row...)
	}
	return t.String()
}

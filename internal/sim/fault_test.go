package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/kernels"
	"warpsched/internal/mem"
	"warpsched/internal/stats"
)

// TestFaultInjectionStress runs HT and ATM from the quick synchronization
// suite under seeded memory faults — latency spikes, response reordering,
// atomic retry storms — with GTO and GTO+BOWS, invariant checking and hang
// aborts armed. Every kernel must still produce verified output: fault
// injection perturbs timing, never correctness.
func TestFaultInjectionStress(t *testing.T) {
	for _, k := range kernels.QuickSyncSuite() {
		if k.Name != "HT" && k.Name != "ATM" {
			continue
		}
		for _, seed := range []uint64{1, 99} {
			for _, bows := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/seed=%d/bows=%v", k.Name, seed, bows), func(t *testing.T) {
					opt := detOptions(2, config.GTO, bows)
					opt.Check = true
					f := mem.DefaultFaults(seed)
					opt.Faults = &f
					runKernel(t, k, opt)
				})
			}
		}
	}
}

// TestFaultDeterminism: the same fault seed twice gives identical
// statistics; a different seed gives a different timing profile.
func TestFaultDeterminism(t *testing.T) {
	run := func(seed uint64) stats.Sim {
		k := kernels.NewHashTable(kernels.HashTableConfig{Items: 1024, Buckets: 64, CTAs: 4, CTAThreads: 64})
		opt := detOptions(2, config.GTO, true)
		opt.Check = true
		f := mem.DefaultFaults(seed)
		opt.Faults = &f
		return runKernel(t, k, opt).Stats
	}
	a, b := run(5), run(5)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same fault seed produced different stats:\n%+v\n%+v", a, b)
	}
	if c := run(6); reflect.DeepEqual(a, c) {
		t.Error("different fault seeds produced identical stats (injector inert?)")
	}
}

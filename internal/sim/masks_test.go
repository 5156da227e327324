// The event-maintained readiness masks and the population-count cycle
// accounting: the parts of the engine the golden gate pins only
// indirectly. The matrix runs the invariant checker every cycle — so a
// readiness-changing event that forgets to call refresh is caught on the
// cycle it happens, not by a drifted total — and the recycled-slot tests
// pin the accounting of warp slots that are reused by a later CTA.
package sim_test

import (
	"fmt"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/kernels"
	"warpsched/internal/sim"
)

// TestMasksCheckedEveryCycle runs a barrier kernel, a lock kernel and a
// multi-wave launch (more CTAs than fit, so slots recycle) with
// CheckEvery 1 under every scheduler, with BOWS off and on, on a two-SM
// Fermi (48 slots) and a two-SM Pascal (64 slots: eight 256-thread CTAs
// fill an SM, so the top mask bit is in use). Zero violations.
func TestMasksCheckedEveryCycle(t *testing.T) {
	suite := []*kernels.Kernel{
		kernels.NewReduce(16, 256),
		kernels.NewHashTable(kernels.HashTableConfig{Items: 256, Buckets: 8, CTAs: 16, CTAThreads: 256}),
		kernels.NewVecAdd(8192, 40, 256),
	}
	for _, gpu := range []config.GPU{config.GTX480().Scaled(2), config.GTX1080Ti().Scaled(2)} {
		for _, kind := range config.AllSchedulers {
			for _, bows := range []config.BOWS{{Mode: config.BOWSOff}, config.DefaultBOWS()} {
				for _, k := range suite {
					name := fmt.Sprintf("%s/%s/%s/bows=%s", gpu.Name, k.Name, kind, bows.Mode)
					t.Run(name, func(t *testing.T) {
						gpu.MaxCycles = 2_000_000
						res := runKernel(t, k, sim.Options{GPU: gpu, Sched: kind, BOWS: bows,
							DDOS: config.DefaultDDOS(), Check: true, CheckEvery: 1})
						if res.Stats.Cycles == 0 {
							t.Fatal("no cycles simulated")
						}
					})
				}
			}
		}
	}
}

// TestRecycledSlotsAccountIdentically launches more CTAs than the machine
// holds, so every warp slot is reused by later waves, and requires the
// population-count accounting to agree — cycles, ResidentSum, StallTotal,
// BackedOffSum and everything else in the result — between the per-cycle
// clock and the event-driven clock (whose flush credits the same sums in
// bulk).
func TestRecycledSlotsAccountIdentically(t *testing.T) {
	k := kernels.NewHashTable(kernels.HashTableConfig{Items: 2048, Buckets: 16, CTAs: 48, CTAThreads: 128})
	for _, kind := range []config.SchedulerKind{config.GTO, config.CAWA} {
		opt := detOptions(2, kind, true)
		opt.NoFastForward = true
		want := runKernel(t, k, opt)
		if want.Stats.BackedOffSum == 0 || want.Stats.StallTotal == 0 {
			t.Fatalf("%s: run exercises no back-off or stall accounting: %+v", kind, want.Stats)
		}
		opt.NoFastForward = false
		got := runKernel(t, k, opt)
		label := fmt.Sprintf("%s/event-driven", kind)
		if got.Stats.Cycles != want.Stats.Cycles || got.Stats.ResidentSum != want.Stats.ResidentSum ||
			got.Stats.StallTotal != want.Stats.StallTotal || got.Stats.BackedOffSum != want.Stats.BackedOffSum {
			t.Errorf("%s: cycles/resident/stall/backed-off = %d/%d/%d/%d, want %d/%d/%d/%d", label,
				got.Stats.Cycles, got.Stats.ResidentSum, got.Stats.StallTotal, got.Stats.BackedOffSum,
				want.Stats.Cycles, want.Stats.ResidentSum, want.Stats.StallTotal, want.Stats.BackedOffSum)
		}
		requireIdentical(t, label, want, got)
	}
}

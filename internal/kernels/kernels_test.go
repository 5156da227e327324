package kernels

import (
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/sim"
)

// runKernel simulates k and verifies functional correctness.
func runKernel(t *testing.T, k *Kernel, opt sim.Options) *sim.Result {
	t.Helper()
	eng, err := sim.New(opt, k.Launch)
	if err != nil {
		t.Fatalf("%s: New: %v", k.Name, err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("%s: Run: %v", k.Name, err)
	}
	if err := k.Verify(res.Memory); err != nil {
		t.Fatalf("%s: verify: %v", k.Name, err)
	}
	return res
}

// smallOpt builds a 2-SM test configuration.
func smallOpt(kind config.SchedulerKind, bows config.BOWSMode) sim.Options {
	g := config.GTX480().Scaled(2)
	g.MaxCycles = 30_000_000
	b := config.BOWS{Mode: config.BOWSOff}
	if bows != config.BOWSOff {
		b = config.DefaultBOWS()
		b.Mode = bows
	}
	return sim.Options{GPU: g, Sched: kind, BOWS: b, DDOS: config.DefaultDDOS()}
}

// The quick suites keep the full cross-product affordable in CI.
func smallSuite() []*Kernel    { return QuickSyncSuite() }
func smallSyncFree() []*Kernel { return QuickSyncFreeSuite() }

// TestSyncKernelsCorrectUnderAllSchedulers is the central integration
// test: every synchronization kernel must produce a functionally correct
// result under every baseline policy, with and without BOWS.
func TestSyncKernelsCorrectUnderAllSchedulers(t *testing.T) {
	for _, k := range smallSuite() {
		for _, kind := range config.Schedulers {
			for _, mode := range []config.BOWSMode{config.BOWSOff, config.BOWSDDOS} {
				name := k.Name + "/" + string(kind)
				if mode != config.BOWSOff {
					name += "+BOWS"
				}
				k := k
				t.Run(name, func(t *testing.T) {
					runKernel(t, k, smallOpt(kind, mode))
				})
			}
		}
	}
}

// TestSyncFreeKernelsCorrect verifies the sync-free suite under GTO and
// GTO+BOWS (where a correct detector must change nothing functionally).
func TestSyncFreeKernelsCorrect(t *testing.T) {
	for _, k := range smallSyncFree() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			runKernel(t, k, smallOpt(config.GTO, config.BOWSOff))
			runKernel(t, k, smallOpt(config.GTO, config.BOWSDDOS))
		})
	}
}

// TestDDOSDetectsHTSpinLoop checks the headline detection claim on HT:
// the ground-truth SIB is confirmed with zero false detections under the
// default (XOR) configuration.
func TestDDOSDetectsHTSpinLoop(t *testing.T) {
	k := NewHashTable(HashTableConfig{Items: 2048, Buckets: 64, CTAs: 4, CTAThreads: 64})
	res := runKernel(t, k, smallOpt(config.GTO, config.BOWSOff))
	det := res.Detection
	if det.TSDR() != 1 {
		t.Errorf("TSDR = %.2f, want 1 (true=%d/%d)", det.TSDR(), det.TrueDetected, det.TrueSeen)
	}
	if det.FSDR() != 0 {
		t.Errorf("FSDR = %.2f, want 0 (false=%d/%d)", det.FSDR(), det.FalseDetected, det.FalseSeen)
	}
}

// TestQueueLockHashtable runs HT on the idealized blocking-lock machine
// (the Fig. 16b comparator): it must be functionally identical and must
// record no failed acquires from parked warps.
func TestQueueLockHashtable(t *testing.T) {
	k := NewHashTable(HashTableConfig{Items: 2048, Buckets: 64, CTAs: 8, CTAThreads: 128})
	opt := smallOpt(config.GTO, config.BOWSOff)
	opt.GPU.Mem.QueueLocks = true
	res := runKernel(t, k, opt)
	base := runKernel(t, k, smallOpt(config.GTO, config.BOWSOff))
	if res.Stats.ThreadInstrs >= base.Stats.ThreadInstrs {
		t.Errorf("blocking locks should remove spin instructions: %d vs %d",
			res.Stats.ThreadInstrs, base.Stats.ThreadInstrs)
	}
	fails := res.Stats.Sync.InterWarpFail + res.Stats.Sync.IntraWarpFail
	baseFails := base.Stats.Sync.InterWarpFail + base.Stats.Sync.IntraWarpFail
	if fails >= baseFails {
		t.Errorf("blocking locks should cut failures: %d vs %d", fails, baseFails)
	}
}

// BenchmarkSuiteBuild measures building kernels, verifier models
// included: both quick suites, the full sync-free suite and the
// full-scale TSP.
func BenchmarkSuiteBuild(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func()
	}{
		{"QuickSyncSuite", func() { QuickSyncSuite() }},
		{"QuickSyncFreeSuite", func() { QuickSyncFreeSuite() }},
		{"SyncFreeSuite", func() { SyncFreeSuite() }},
		{"FullTSP", func() { NewTSP(6144, 64, 48, 128) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				c.build()
			}
		})
	}
}

package kernels

import (
	"runtime"
	"slices"
	"sync"
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

// BenchmarkSuiteBuild measures each leg — both quick suites, the full
// sync-free suite and the full-scale TSP — twice: "build" constructs the
// kernels, which synthesizes nothing; "first-launch" constructs them and
// runs every kernel's Setup into a reused image and its Verify on that
// image, so it also pays for the seeded inputs and verifier models.
func BenchmarkSuiteBuild(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func() []*Kernel
	}{
		{"QuickSyncSuite", QuickSyncSuite},
		{"QuickSyncFreeSuite", QuickSyncFreeSuite},
		{"SyncFreeSuite", SyncFreeSuite},
		{"FullTSP", func() []*Kernel { return []*Kernel{NewTSP(6144, 64, 48, 128)} }},
	} {
		b.Run(c.name+"/build", func(b *testing.B) {
			for range b.N {
				c.build()
			}
		})
		b.Run(c.name+"/first-launch", func(b *testing.B) {
			var img []uint32
			for range b.N {
				for _, k := range c.build() {
					img = slices.Grow(img[:0], k.Launch.MemWords)[:k.Launch.MemWords]
					clear(img)
					k.Launch.Setup(img)
					_ = k.Verify(img) // an initial image fails; the model is built all the same
				}
			}
		})
	}
}

// TestConstructionSynthesizesNothing bounds the bytes that building all
// four suites allocates. Construction builds programs and layouts only;
// inputs and verifier models wait for a first Setup or Verify. Building
// the 44 variants allocated 6.21 MB while constructors synthesized their
// data, and allocates 0.46 MB now.
func TestConstructionSynthesizesNothing(t *testing.T) {
	const bound = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allRegistered()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("building the four suites allocated %d bytes", got)
	if got > bound {
		t.Errorf("building the four suites allocated %d bytes, want at most %d", got, bound)
	}
}

// TestFirstLaunchRaceFree: eight goroutines launch one freshly built
// kernel at once and verify a correct final image with it, so its inputs
// and verifier model are synthesized under contention (CI runs it under
// -race). Every launch must start from the same image, and every Verify
// must pass. The final image comes from a run of a second instance, so
// the one under test synthesizes nothing before the goroutines start.
func TestFirstLaunchRaceFree(t *testing.T) {
	for _, mk := range []func() *Kernel{
		func() *Kernel { return NewTSP(3072, 48, 24, 128) },        // quick TSP
		func() *Kernel { return NewMergeSortPass(131072, 8, 128) }, // full MS
	} {
		final := goldenMemory(t, mk())
		k := mk()
		t.Run(k.Name, func(t *testing.T) {
			const launches = 8
			images := make([][]uint32, launches)
			errs := make([]error, launches)
			var wg sync.WaitGroup
			for i := range launches {
				wg.Add(1)
				go func() {
					defer wg.Done()
					l := k.Launch
					l.Setup = func(w []uint32) {
						k.Launch.Setup(w)
						images[i] = slices.Clone(w)
					}
					if _, err := sim.New(smallOpt(config.GTO, config.BOWSOff), l); err != nil {
						errs[i] = err
						return
					}
					errs[i] = k.Verify(final)
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("launch %d: %v", i, err)
				}
				if !slices.Equal(images[i], images[0]) {
					t.Fatalf("launch %d started from a different image than launch 0", i)
				}
			}
		})
	}
}

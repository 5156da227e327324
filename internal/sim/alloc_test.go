package sim_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"warpsched/internal/config"
	"warpsched/internal/isa"
	"warpsched/internal/kernels"
	"warpsched/internal/sim"
	"warpsched/internal/simt"
)

// aluLoopProg builds a pure-ALU countdown loop: iters iterations of a few
// arithmetic instructions per thread, no memory traffic.
func aluLoopProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("alu-loop")
	b.LdParam(10, 0) // iters
	b.Mov(2, isa.I(0))
	b.Mov(3, isa.S(isa.SpecGTID))
	b.While(0, false,
		func() { b.Setp(isa.LT, 0, isa.R(2), isa.R(10)) },
		func() {
			b.Add(3, isa.R(3), isa.I(7))
			b.Xor(3, isa.R(3), isa.R(2))
			b.Add(2, isa.R(2), isa.I(1))
		})
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

// runAllocs executes the launch and returns the heap allocations
// performed by Run (not construction) alongside the result.
func runAllocs(t *testing.T, opt sim.Options, launch sim.Launch) (allocs uint64, res *sim.Result) {
	t.Helper()
	m0, m1, res := runMemStats(t, opt, launch)
	return m1.Mallocs - m0.Mallocs, res
}

// runMemStats executes the launch and returns the memory statistics read
// just before and just after Run.
func runMemStats(t *testing.T, opt sim.Options, launch sim.Launch) (m0, m1 runtime.MemStats, res *sim.Result) {
	t.Helper()
	eng, err := sim.New(opt, launch)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res, err = eng.Run()
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m0, m1, res
}

// TestEngineWarpBytes pins what placing a warp costs Run: REDUCE's 512
// warps on the 4-SM machine name 13 registers, so each warp's register
// file is 13 rows (1.7 KB), not isa.NumRegs = 64 of them (8 KB).
func TestEngineWarpBytes(t *testing.T) {
	k := kernels.NewReduce(64, 256)
	m0, m1, _ := runMemStats(t, detOptions(4, config.GTO, false), k.Launch)
	warps := uint64(k.Launch.GridCTAs * k.Launch.CTAThreads / isa.WarpSize)
	if perWarp := (m1.TotalAlloc - m0.TotalAlloc) / warps; perWarp > 4096 {
		t.Errorf("Run allocates %d B per warp placed over %d warps, want ≤ 4096", perWarp, warps)
	}
}

// TestEngineSteadyStateAllocs requires the issue/writeback hot path to be
// allocation-free: growing the per-thread loop count by tens of thousands
// of instructions must not grow Run's heap allocations. Warm-up costs
// (CTA dispatch, scratch growth, GC noise) are identical between the two
// runs, so the delta isolates the steady state.
func TestEngineSteadyStateAllocs(t *testing.T) {
	aluRun := func(iters uint32) (uint64, int64) {
		allocs, res := runAllocs(t, detOptions(2, config.GTO, false), sim.Launch{
			Prog:       aluLoopProg(t),
			GridCTAs:   4,
			CTAThreads: 64,
			Params:     []uint32{iters},
			MemWords:   64,
		})
		return allocs, res.Stats.WarpInstrs
	}
	aSmall, iSmall := aluRun(500)
	aBig, iBig := aluRun(5000)
	dInstr := iBig - iSmall
	if dInstr < 10_000 {
		t.Fatalf("instruction delta too small to measure: %d", dInstr)
	}
	var dAlloc uint64
	if aBig > aSmall {
		dAlloc = aBig - aSmall
	}
	// Allow a small constant slop for runtime-internal allocations
	// (ReadMemStats, GC bookkeeping) — but nothing proportional to the
	// extra instructions.
	if dAlloc > 64 {
		t.Errorf("steady-state allocations: %d extra allocs over %d extra warp instructions (small=%d big=%d)",
			dAlloc, dInstr, aSmall, aBig)
	}
}

// TestEngineTSPAllocsPerIssue is the ROADMAP's requirement on the path
// every result is bought with: zero steady-state allocations per issued
// warp instruction on quick TSP, under GTO and under CAWA+BOWS. The same
// climbers on the same CTAs walk a 24-city and the quick suite's 48-city
// tour, so the larger run issues a few hundred thousand more instructions
// — ALU rows, setp masks, divergent branches, loads and the lock's
// atomics — from identical warps; nothing may allocate in proportion.
func TestEngineTSPAllocsPerIssue(t *testing.T) {
	for _, v := range []struct {
		kind config.SchedulerKind
		bows bool
	}{{config.GTO, false}, {config.CAWA, true}} {
		tspRun := func(cities int) (uint64, int64) {
			allocs, res := runAllocs(t, detOptions(2, v.kind, v.bows), kernels.NewTSP(3072, cities, 24, 128).Launch)
			return allocs, res.Stats.WarpInstrs
		}
		aSmall, iSmall := tspRun(24)
		aBig, iBig := tspRun(48)
		if iBig-iSmall < 100_000 {
			t.Fatalf("%s bows=%v: instruction delta too small to measure: %d", v.kind, v.bows, iBig-iSmall)
		}
		// The constant slop of TestEngineSteadyStateAllocs.
		if aBig > aSmall+64 {
			t.Errorf("%s bows=%v: %d extra allocs over %d extra warp instructions (small=%d big=%d)",
				v.kind, v.bows, aBig-aSmall, iBig-iSmall, aSmall, aBig)
		}
	}
}

// TestEngineLockRetryAllocs is the same requirement for the lock-retry
// path: the hashtable kernel inserts the same keys from the same threads
// into many buckets and into few, with and without BOWS/DDOS, so the
// contended run does the same useful work with tens of thousands more
// failed acquires and over ten times the cycles, most of them spent
// NACKing parked atomics at the L2 or walking backed-off warps. The L2
// queue and its NACK tally, the LSQ, the back-off queues and the
// readiness masks must not allocate per retry or per cycle.
func TestEngineLockRetryAllocs(t *testing.T) {
	for _, bows := range []bool{true, false} {
		htRun := func(buckets int) (allocs uint64, failed, cycles int64) {
			k := kernels.NewHashTable(kernels.HashTableConfig{Items: 3072, Buckets: buckets, CTAs: 12, CTAThreads: 128})
			allocs, res := runAllocs(t, detOptions(2, config.GTO, bows), k.Launch)
			return allocs, res.Stats.Sync.InterWarpFail + res.Stats.Sync.IntraWarpFail, res.Stats.Cycles
		}
		aLow, fLow, cLow := htRun(512)
		aHigh, fHigh, cHigh := htRun(8)
		if fHigh-fLow < 10_000 || cHigh < 10*cLow {
			t.Fatalf("bows=%v: contention delta too small to measure: %d → %d failed acquires, %d → %d cycles",
				bows, fLow, fHigh, cLow, cHigh)
		}
		// The uncontended run misses more in L1 and DRAM, whose queues still
		// allocate, so the contended run normally allocates less; allow the
		// same constant slop as above, nothing proportional to the retries.
		if aHigh > aLow+64 {
			t.Errorf("bows=%v: %d extra allocs over %d extra failed acquires and %d extra cycles (low=%d high=%d)",
				bows, aHigh-aLow, fHigh-fLow, cHigh-cLow, aLow, aHigh)
		}
	}
}

// streamProg builds a streaming-load loop: each of iters iterations loads
// the thread's word of a fresh stretch of memory, one cache line per warp
// that no warp touched before, then a second word of that line, which
// merges onto the first load's outstanding miss.
func streamProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("stream")
	b.LdParam(10, 0) // iters
	b.LdParam(11, 1) // threads: the stride between iterations
	b.Mov(2, isa.I(0))
	b.Mov(3, isa.S(isa.SpecGTID))
	b.Mov(4, isa.I(0))
	b.While(0, false,
		func() { b.Setp(isa.LT, 0, isa.R(2), isa.R(10)) },
		func() {
			b.Ld(5, isa.R(3), isa.I(0))
			b.Ld(6, isa.R(3), isa.I(1))
			b.Add(4, isa.R(4), isa.R(5))
			b.Add(4, isa.R(4), isa.R(6))
			b.Add(3, isa.R(3), isa.R(11))
			b.Add(2, isa.R(2), isa.I(1))
		})
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

// TestEngineMissAllocs is the same requirement for the L1 miss path: a
// streaming kernel whose every line misses runs ten times as many
// iterations, and the MSHRs, their merges, the completion wheel and the
// DRAM queue must not allocate per miss.
func TestEngineMissAllocs(t *testing.T) {
	const ctas, threads = 4, 64
	streamRun := func(iters uint32) (uint64, int64) {
		allocs, res := runAllocs(t, detOptions(2, config.GTO, false), sim.Launch{
			Prog:       streamProg(t),
			GridCTAs:   ctas,
			CTAThreads: threads,
			Params:     []uint32{iters, ctas * threads},
			MemWords:   int(iters+1) * ctas * threads,
		})
		m := res.Stats.Mem
		if m.MSHRMerges == 0 {
			t.Errorf("%d iterations: no load merged onto an outstanding miss", iters)
		}
		return allocs, m.L1Accesses - m.L1Hits
	}
	aSmall, mSmall := streamRun(40)
	aBig, mBig := streamRun(400)
	if mBig < 10*mSmall {
		t.Fatalf("L1 misses grew %d → %d, not tenfold", mSmall, mBig)
	}
	if aBig > aSmall+64 {
		t.Errorf("%d extra allocs over %d extra L1 misses (small=%d big=%d)", aBig-aSmall, mBig-mSmall, aSmall, aBig)
	}
}

// warpWatcher sets a finalizer on every warp that issues a memory
// access and counts the finalizers that have run, so a test can ask how
// many of those warps the garbage collector found unreachable.
type warpWatcher struct {
	// seen is keyed by GTIDBase, not by pointer: a map of pointers would
	// keep the warps alive, and a collected warp's address can be reused.
	seen      map[int32]bool
	collected atomic.Int64
}

func (o *warpWatcher) Access(w *simt.Warp, _ int32, _ *isa.Instr, _ []simt.MemAccess) {
	if o.seen[w.GTIDBase] {
		return
	}
	o.seen[w.GTIDBase] = true
	runtime.SetFinalizer(w, func(*simt.Warp) { o.collected.Add(1) })
}

func (o *warpWatcher) BarrierRelease(*simt.CTA) {}

// TestFinishedWarpsCollectable requires the engine to let go of a warp
// once its CTA is done: after a REDUCE run, whose every warp waits at a
// barrier, no warp may be reachable through the engine that ran it.
func TestFinishedWarpsCollectable(t *testing.T) {
	k := kernels.NewReduce(64, 256)
	ob := &warpWatcher{seen: map[int32]bool{}}
	opt := detOptions(4, config.GTO, false)
	opt.Observer = ob
	eng, err := sim.New(opt, k.Launch)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := k.Launch.GridCTAs * k.Launch.CTAThreads / isa.WarpSize
	if len(ob.seen) != want {
		t.Fatalf("observed %d warps, want %d", len(ob.seen), want)
	}
	// Finalizers run on their own goroutine after the collection that
	// finds their object unreachable; give them a bounded while.
	for i := 0; i < 50 && ob.collected.Load() < int64(want); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(eng)
	if n := ob.collected.Load(); n != int64(want) {
		t.Errorf("%d of %d finished warps are still reachable after Run", int64(want)-n, want)
	}
}

// Functional results: kernels run to completion on the cycle engine and
// their memory image is checked — straight-line, divergent, barrier,
// partial-warp, multi-wave, fenced and clock-reading programs. The small
// machine and the vecAdd kernel defined here are shared by the package's
// other engine tests.

package sim

import (
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/isa"
	"warpsched/internal/simt"
)

// smallGPU returns a 2-SM configuration for fast tests.
func smallGPU() config.GPU {
	g := config.GTX480().Scaled(2)
	g.MaxCycles = 5_000_000
	return g
}

func testOptions(kind config.SchedulerKind) Options {
	return Options{
		GPU:   smallGPU(),
		Sched: kind,
		BOWS:  config.BOWS{Mode: config.BOWSOff},
		DDOS:  config.DefaultDDOS(),
	}
}

// vecAddProg builds c[i] = a[i] + b[i] over n elements, grid-stride.
func vecAddProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("vecadd-smoke")
	b.LdParam(10, 0) // n
	b.LdParam(11, 1) // a
	b.LdParam(12, 2) // b
	b.LdParam(13, 3) // c
	b.Mov(2, isa.S(isa.SpecGTID))
	b.Mov(3, isa.S(isa.SpecNTID))
	b.Mul(3, isa.R(3), isa.S(isa.SpecNCTAID))
	b.While(0, false,
		func() { b.Setp(isa.LT, 0, isa.R(2), isa.R(10)) },
		func() {
			b.Ld(4, isa.R(11), isa.R(2))
			b.Ld(5, isa.R(12), isa.R(2))
			b.Add(6, isa.R(4), isa.R(5))
			b.St(isa.R(13), isa.R(2), isa.R(6))
			b.Add(2, isa.R(2), isa.R(3))
		})
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

// vecAddLaunch launches vecAddProg over n elements with a[i]=i, b[i]=3i,
// so c[i] must come out 4i.
func vecAddLaunch(t *testing.T, n, ctas, threads int) Launch {
	un := uint32(n)
	return Launch{
		Prog:       vecAddProg(t),
		GridCTAs:   ctas,
		CTAThreads: threads,
		Params:     []uint32{un, 0, un, 2 * un},
		MemWords:   3*n + 64,
		Setup: func(w []uint32) {
			for i := 0; i < n; i++ {
				w[i] = uint32(i)
				w[n+i] = uint32(3 * i)
			}
		},
	}
}

func TestEngineVecAdd(t *testing.T) {
	type vecAddCase struct {
		name             string
		opt              Options
		n, ctas, threads int
	}
	// One warp on a one-SM machine: 100 elements at stride 32 end on a
	// partially active fourth iteration.
	oneSM := testOptions(config.GTO)
	oneSM.GPU = oneSM.GPU.Scaled(1)
	cases := []vecAddCase{{"one-warp", oneSM, 100, 1, 32}}
	for _, kind := range config.Schedulers {
		// 96-thread CTAs include partial warps.
		cases = append(cases, vecAddCase{string(kind), testOptions(kind), 1000, 4, 96})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(tc.opt, vecAddLaunch(t, tc.n, tc.ctas, tc.threads))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for i := 0; i < tc.n; i++ {
				if got, want := res.Memory[2*tc.n+i], uint32(4*i); got != want {
					t.Fatalf("c[%d] = %d, want %d", i, got, want)
				}
			}
			if res.Stats.Cycles <= 0 || res.Stats.WarpInstrs <= 0 {
				t.Fatalf("implausible stats: %+v", res.Stats)
			}
			// A regular loop must not be classified as spinning.
			if len(res.ConfirmedSIBs) != 0 {
				t.Fatalf("false SIB detection on vecadd: %v", res.ConfirmedSIBs)
			}
		})
	}
}

// divergeProg exercises nested divergence: odd lanes and high lanes take
// different paths, all must reconverge.
func divergeProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("diverge-smoke")
	b.LdParam(10, 0) // out base
	b.Mov(2, isa.S(isa.SpecGTID))
	b.And(3, isa.R(2), isa.I(1))
	b.Setp(isa.EQ, 0, isa.R(3), isa.I(0))
	b.IfElse(0, false,
		func() { // even lanes
			b.Setp(isa.LT, 1, isa.R(2), isa.I(16))
			b.IfElse(1, false,
				func() { b.Mov(4, isa.I(100)) },
				func() { b.Mov(4, isa.I(200)) })
		},
		func() { // odd lanes
			b.Mov(4, isa.I(300))
		})
	b.Add(4, isa.R(4), isa.R(2))
	b.St(isa.R(10), isa.R(2), isa.R(4))
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func TestEngineDivergence(t *testing.T) {
	const n = 64
	launch := Launch{
		Prog:       divergeProg(t),
		GridCTAs:   1,
		CTAThreads: n,
		Params:     []uint32{0},
		MemWords:   n + 64,
	}
	eng, err := New(testOptions(config.GTO), launch)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < n; i++ {
		if want := divergeWant(i); res.Memory[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, res.Memory[i], want)
		}
	}
}

// divergeWant is divergeProg's output for global thread i.
func divergeWant(i int) uint32 {
	switch {
	case i%2 != 0:
		return uint32(300 + i)
	case i < 16:
		return uint32(100 + i)
	}
	return uint32(200 + i)
}

// TestWarpFunctionalStep steps one warp through the smoke programs with
// loads and stores applied immediately — no engine, no timing — so a
// wrong answer from TestEngineVecAdd or TestEngineDivergence can be told
// apart as a functional (SIMT stack, ALU) or a timing (scoreboard, memory
// system) bug.
func TestWarpFunctionalStep(t *testing.T) {
	step := func(p *isa.Program, params, words []uint32) {
		t.Helper()
		w := simt.NewWarp(p, simt.NewCTA(0, 32, 1, 1), 0, 0, 0, 0, 32)
		w.Params = params
		for cycle := int64(0); cycle < 5000 && !w.Done; cycle++ {
			in := w.NextInstr()
			res := w.Execute(cycle)
			for i := range res.Mem {
				switch a := &res.Mem[i]; in.Op {
				case isa.OpLd:
					w.SetReg(a.Lane, in.Dst, words[a.Addr])
				case isa.OpSt:
					words[a.Addr] = a.V1
				}
			}
		}
		if !w.Done {
			t.Fatalf("%s: warp did not finish", p.Name)
		}
	}

	const n = 100
	launch := vecAddLaunch(t, n, 1, 32)
	words := make([]uint32, launch.MemWords)
	launch.Setup(words)
	step(launch.Prog, launch.Params, words)
	for i := 0; i < n; i++ {
		if words[2*n+i] != uint32(4*i) {
			t.Fatalf("vecadd: c[%d] = %d, want %d", i, words[2*n+i], 4*i)
		}
	}

	words = make([]uint32, 32)
	step(divergeProg(t), []uint32{0}, words)
	for i := range words {
		if words[i] != divergeWant(i) {
			t.Fatalf("diverge: out[%d] = %d, want %d", i, words[i], divergeWant(i))
		}
	}
}

// barrierProg has warps exchange data through memory across a barrier.
func barrierProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("barrier-smoke")
	b.LdParam(10, 0) // buf base
	b.LdParam(11, 1) // out base
	b.Mov(2, isa.S(isa.SpecTID))
	b.Mov(3, isa.S(isa.SpecNTID))
	b.St(isa.R(10), isa.R(2), isa.R(2)) // buf[tid] = tid
	b.Membar()
	b.Bar()
	// read neighbour: buf[(tid+1) % ntid]
	b.Add(4, isa.R(2), isa.I(1))
	b.Rem(4, isa.R(4), isa.R(3))
	b.Ld(5, isa.R(10), isa.R(4))
	b.St(isa.R(11), isa.R(2), isa.R(5))
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func TestEngineBarrier(t *testing.T) {
	const n = 128
	launch := Launch{
		Prog:       barrierProg(t),
		GridCTAs:   1,
		CTAThreads: n,
		Params:     []uint32{0, n},
		MemWords:   2*n + 64,
	}
	eng, err := New(testOptions(config.LRR), launch)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < n; i++ {
		want := uint32((i + 1) % n)
		if res.Memory[n+i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, res.Memory[n+i], want)
		}
	}
}

func TestPartialWarpCTA(t *testing.T) {
	// 50 threads per CTA: one full warp + one 18-lane warp.
	const n = 200
	launch := Launch{
		Prog:       vecAddProg(t),
		GridCTAs:   4,
		CTAThreads: 50,
		Params:     []uint32{n, 0, n, 2 * n},
		MemWords:   3*n + 64,
		Setup: func(w []uint32) {
			for i := 0; i < n; i++ {
				w[i] = uint32(i)
				w[n+i] = uint32(10 * i)
			}
		},
	}
	eng, err := New(testOptions(config.LRR), launch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if res.Memory[2*n+i] != uint32(11*i) {
			t.Fatalf("c[%d] = %d, want %d", i, res.Memory[2*n+i], 11*i)
		}
	}
}

func TestCTAOversubscription(t *testing.T) {
	// More CTAs than the machine can host at once: the dispatcher must
	// place them in waves.
	const n = 4096
	launch := Launch{
		Prog:       vecAddProg(t),
		GridCTAs:   40, // 2 SMs × 8 CTAs max → 3 waves
		CTAThreads: 64,
		Params:     []uint32{n, 0, n, 2 * n},
		MemWords:   3*n + 64,
		Setup: func(w []uint32) {
			for i := 0; i < n; i++ {
				w[i] = uint32(i)
				w[n+i] = uint32(2 * i)
			}
		},
	}
	eng, err := New(testOptions(config.GTO), launch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if res.Memory[2*n+i] != uint32(3*i) {
			t.Fatalf("c[%d] = %d", i, res.Memory[2*n+i])
		}
	}
}

func TestMembarOrdersStoreBeforeFlag(t *testing.T) {
	// Producer stores data then flag (with membar between); consumer
	// spins on the flag and must observe the data.
	// The producer must be a whole warp: a producer lane sharing a warp
	// with spinning consumer lanes would be a SIMT-induced deadlock.
	b := isa.NewBuilder("producer-consumer")
	b.Mov(1, isa.S(isa.SpecGTID))
	b.Setp(isa.LT, 0, isa.R(1), isa.I(32))
	b.IfElse(0, false,
		func() { // producer warp: lane 0 publishes
			b.Setp(isa.EQ, 2, isa.R(1), isa.I(0))
			b.If(2, false, func() {
				b.St(isa.I(0), isa.I(0), isa.I(1234)) // data
				b.Membar()
				b.St(isa.I(0), isa.I(1), isa.I(1)) // flag
			})
		},
		func() { // consumer warps
			b.DoWhile(1, false,
				func() { b.LdVol(3, isa.I(0), isa.I(1)) },
				func() { b.Setp(isa.EQ, 1, isa.R(3), isa.I(0)) })
			b.AnnotateLast(isa.AnnSync)
			b.LdVol(4, isa.I(0), isa.I(0))
			b.Add(5, isa.R(1), isa.I(16))
			b.St(isa.I(0), isa.R(5), isa.R(4)) // out[16+gtid] = data
		})
	b.Exit()
	p := b.MustBuild()
	// Consumers must be in other warps: use 2 CTAs of 32.
	eng, err := New(testOptions(config.GTO), Launch{
		Prog: p, GridCTAs: 2, CTAThreads: 32, MemWords: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for gtid := 32; gtid < 64; gtid++ {
		if got := res.Memory[16+gtid]; got != 1234 {
			t.Fatalf("consumer %d observed %d, want 1234 (fence violated)", gtid, got)
		}
	}
}

func TestClockSpecialAdvances(t *testing.T) {
	b := isa.NewBuilder("clock")
	b.Clock(1)
	// Burn a few cycles with dependent ALU ops.
	b.Add(2, isa.R(1), isa.I(1))
	b.Add(2, isa.R(2), isa.I(1))
	b.Add(2, isa.R(2), isa.I(1))
	b.Clock(3)
	b.Sub(4, isa.R(3), isa.R(1))
	b.St(isa.I(0), isa.I(0), isa.R(4))
	b.Exit()
	p := b.MustBuild()
	eng, err := New(testOptions(config.GTO), Launch{
		Prog: p, GridCTAs: 1, CTAThreads: 32, MemWords: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if int32(res.Memory[0]) <= 0 {
		t.Fatalf("clock delta = %d, want positive", int32(res.Memory[0]))
	}
}

// TestRecycledSlotFirstTickStallFree pins a rule of the cycle accounting
// that golden would otherwise carry silently: a warp that retires on its
// issue leaves its slot's issued mark set (the per-cycle accounting only
// clears the marks of live warps), so the next warp placed in that slot is
// not charged a stall for its first tick even if it does not issue in it.
//
// One CTA at a time, two warps per CTA, a program that is a single exit;
// both slots belong to scheduler unit 0, which issues one warp per tick:
//
//	tick 0  A0 (slot 0) exits; A1 (slot 1) waits        resident 1, stall 1
//	tick 1  A1 exits, the CTA completes, B is placed    resident 0
//	tick 2  B0 (slot 1) exits; B1 (slot 0) waits — its
//	        first tick, on slot 0's stale mark          resident 1, stall 0
//	tick 3  B1 exits                                    resident 0
func TestRecycledSlotFirstTickStallFree(t *testing.T) {
	b := isa.NewBuilder("exit-only")
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(config.CAWA)
	opt.GPU = opt.GPU.Scaled(1)
	opt.GPU.MaxCTAsPerSM = 1
	launch := Launch{Prog: p, GridCTAs: 2, CTAThreads: 64, MemWords: 64}

	eng, err := New(opt, launch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != 4 || res.Stats.ResidentSum != 2 || res.Stats.StallTotal != 1 {
		t.Errorf("cycles/resident/stall = %d/%d/%d, want 4/2/1 (stall 2 would charge the recycled slot's first tick)",
			res.Stats.Cycles, res.Stats.ResidentSum, res.Stats.StallTotal)
	}

	// The same launch stepped by hand up to tick 2, for the per-warp pair
	// CAWA reads: B1 has been resident one tick and stalled none.
	eng, err = New(opt, launch)
	if err != nil {
		t.Fatal(err)
	}
	m := eng.sms[0]
	eng.dispatch()
	m.tick(0)
	m.tick(1)
	eng.dispatch()
	m.tick(2)
	if w := m.warps[0]; w == nil || w.Done || m.warps[1] == nil || !m.warps[1].Done {
		t.Fatalf("after tick 2 slot 0 should hold the waiting B1 and slot 1 the retired B0")
	}
	if m.readyMask(m.units[0])&1 == 0 {
		t.Fatal("B1 is not ready")
	}
	m.settle(0) // what tick does for a ready set before CAWA reads the pairs
	if mt := m.metrics[0]; mt.ResidentCycles != 1 || mt.StallCycles != 0 {
		t.Errorf("B1 resident/stall cycles = %d/%d, want 1/0", mt.ResidentCycles, mt.StallCycles)
	}
}

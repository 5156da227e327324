package main

import (
	"runtime"
	"time"

	"warpsched"
	"warpsched/internal/analysis"
	"warpsched/internal/analysis/race"
	"warpsched/internal/config"
	"warpsched/internal/core"
	"warpsched/internal/isa"
	"warpsched/internal/kernels"
	"warpsched/internal/mem"
	"warpsched/internal/sched"
	"warpsched/internal/sim"
	"warpsched/internal/simt"
	"warpsched/internal/trace"
)

// Layer probes: microbenchmarks of each layer's public functions on
// fixed inputs, and A/B engine runs that isolate one engine option. They
// run after the traced workload, are the same on every workload, and use
// no seed — a probe's inputs never change.

// medianOf calls f n times and returns the median nanoseconds of a call.
func medianOf(n int, f func()) float64 {
	ns := make([]float64, n)
	for i := range ns {
		t0 := time.Now()
		f()
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(ns)
}

// perCall times f in 11 batches and returns the median nanoseconds per
// call. With a batch of 10000 that is 110000 calls.
func perCall(batch int, f func()) float64 {
	return medianOf(11, func() {
		for i := 0; i < batch; i++ {
			f()
		}
	}) / float64(batch)
}

const (
	nsBatch = 10000 // calls per batch for functions that take nanoseconds
	usBatch = 50    // ... microseconds to a millisecond
)

// suitePrograms returns the 22 programs of the full-scale suites.
func suitePrograms() []*kernels.Kernel {
	return append(kernels.SyncSuite(), kernels.SyncFreeSuite()...)
}

func probeFrontEnd(r *run) {
	r.layer["kernels.build_ms"] = medianOf(5, func() {
		kernels.QuickSyncSuite()
		kernels.QuickSyncFreeSuite()
		suitePrograms()
	}) / 1e6

	ks := suitePrograms()
	var texts []string
	instrs := 0
	for _, k := range ks {
		texts = append(texts, k.Launch.Prog.Assembly())
		instrs += int(k.Launch.Prog.Len())
	}
	kinstr := float64(instrs) / 1000
	r.layer["isa.assembly_us_per_kinstr"] = perCall(2, func() {
		for _, k := range ks {
			k.Launch.Prog.Assembly()
		}
	}) / 1e3 / kinstr
	r.layer["isa.parse_us_per_kinstr"] = perCall(2, func() {
		for i, k := range ks {
			if _, err := isa.Parse(k.Name, texts[i]); err != nil {
				r.fail("probe: isa.Parse(%s) of its own assembly: %v", k.Name, err)
			}
		}
	}) / 1e3 / kinstr
	r.layer["analysis.analyze_us_per_kernel"] = perCall(2, func() {
		for _, k := range ks {
			analysis.Analyze(k.Launch.Prog)
		}
	}) / 1e3 / float64(len(ks))
	r.layer["analysis.race_us_per_kernel"] = perCall(1, func() {
		for _, k := range ks {
			race.Analyze(k.Launch.Prog, race.Options{GridCTAs: int32(k.Launch.GridCTAs), CTAThreads: int32(k.Launch.CTAThreads)})
		}
	}) / 1e3 / float64(len(ks))
}

// loopWarp builds a one-warp endless loop around body (64 copies of it,
// so the closing branch is under 2% of the executed instructions) and
// returns a warp with `lanes` valid lanes positioned at its top.
func loopWarp(lanes int, body func(b *isa.Builder)) *simt.Warp {
	b := isa.NewBuilder("probe")
	b.Label("top")
	for i := 0; i < 64; i++ {
		body(b)
	}
	b.Bra("top")
	b.Exit()
	prog := b.MustBuild()
	w := simt.NewWarp(prog, simt.NewCTA(0, 32, 1, 1), 0, 0, 0, 0, lanes)
	for l := 0; l < 32; l++ {
		w.SetReg(l, 1, uint32(l))
		w.SetReg(l, 10, 0)
	}
	return w
}

func probeSIMT(r *run) {
	exec := func(w *simt.Warp) float64 { return perCall(nsBatch, func() { w.Execute(0) }) }
	alu := func(b *isa.Builder) { b.Add(2, isa.R(2), isa.R(1)) }
	full := loopWarp(32, alu)
	r.layer["simt.exec_alu_full_ns"] = exec(full)
	r.layer["simt.exec_alu_sparse_ns"] = exec(loopWarp(4, alu))
	r.layer["simt.exec_setp_ns"] = exec(loopWarp(32, func(b *isa.Builder) { b.Setp(isa.LT, 1, isa.R(1), isa.R(2)) }))
	// A branch half the lanes take, reconverging right after: each
	// iteration pushes and pops the reconvergence stack.
	r.layer["simt.exec_bra_div_ns"] = exec(loopWarp(32, func(b *isa.Builder) {
		b.Setp(isa.LT, 1, isa.S(isa.SpecLaneID), isa.I(16))
		b.If(1, false, func() { b.Add(2, isa.R(2), isa.I(1)) })
	}))
	r.layer["simt.exec_ld_ns"] = exec(loopWarp(32, func(b *isa.Builder) { b.Ld(3, isa.R(10), isa.R(1)) }))
	r.layer["simt.exec_atom_ns"] = exec(loopWarp(32, func(b *isa.Builder) { b.AtomCAS(3, isa.R(10), isa.I(0), isa.I(0), isa.I(1)) }))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const n = 100000
	for i := 0; i < n; i++ {
		full.Execute(0)
	}
	runtime.ReadMemStats(&m1)
	r.layer["simt.exec_allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / n

	prog := full.Prog
	r.layer["simt.new_warp_us"] = perCall(nsBatch/10, func() {
		simt.NewWarp(prog, simt.NewCTA(0, 128, 1, 4), 0, 0, 0, 0, 32)
	}) / 1e3
}

// A scheduler unit of 48 slots with every fourth warp ready.
const probeSlots = 48

func probeSlotsList() ([]int, []sched.WarpMetrics) {
	slots := make([]int, probeSlots)
	wm := make([]sched.WarpMetrics, probeSlots)
	for i := range slots {
		slots[i] = i
		wm[i] = sched.WarpMetrics{Resident: true, Issued: int64(10 + i), ResidentCycles: int64(100 + 7*i), EstRemaining: int64(1000 - i)}
	}
	return slots, wm
}

func probeSched(r *run) {
	slots, wm := probeSlotsList()
	ready := func(s int) bool { return s%4 == 0 }
	none := func(int) bool { return false }
	// One pick and the OnIssue that follows it: the scheduler's cost of
	// issuing one instruction.
	pick := func(kind config.SchedulerKind) float64 {
		p, err := sched.New(kind, slots, wm, sched.Params{GTORotatePeriod: 50000, WaSP: config.DefaultWaSP()})
		if err != nil {
			r.fail("probe: %v", err)
			return 0
		}
		cycle := int64(0)
		return perCall(nsBatch, func() {
			cycle++
			if s := p.Pick(cycle, ready); s >= 0 {
				p.OnIssue(s, cycle)
			}
		})
	}
	r.layer["sched.pick_lrr_ns"] = pick(config.LRR)
	r.layer["sched.pick_gto_ns"] = pick(config.GTO)
	r.layer["sched.pick_cawa_ns"] = pick(config.CAWA)
	r.layer["sched.pick_wasp_ns"] = pick(config.WASP)
	gto := sched.NewGTO(slots, 50000)
	cycle := int64(0)
	r.layer["sched.pick_idle_ns"] = perCall(nsBatch, func() { cycle++; gto.Pick(cycle, none) })
}

func probeCore(r *run) {
	detector := func(d core.Detector) (setp, branch float64) {
		i := uint32(0)
		setp = perCall(nsBatch, func() {
			i++
			d.OnSetp(int(i%probeSlots), int32(8+4*(i%5)), 0, i&7, 3)
		})
		cycle := int64(0)
		branch = perCall(nsBatch, func() {
			cycle++
			d.OnBranch(int(cycle%probeSlots), int32(8+4*(cycle%5)), cycle%5 == 0, cycle)
		})
		return
	}
	r.layer["core.ddos_onsetp_ns"], r.layer["core.ddos_onbranch_ns"] = detector(core.NewDDOS(config.DefaultDDOS(), probeSlots))
	r.layer["core.tage_onsetp_ns"], r.layer["core.tage_onbranch_ns"] = detector(core.NewTAGESIB(config.DefaultTAGE(), probeSlots))

	// Half of the unit's warps backed off: the base policy picks among the
	// rest, which is the common case the wrapper adds its filter to.
	slots, _ := probeSlotsList()
	b := core.NewBOWS(config.DefaultBOWS(), nil, probeSlots)
	w := core.Wrap(sched.NewGTO(slots, 50000), b)
	for s := 0; s < probeSlots; s += 2 {
		w.OnSIB(s)
	}
	ready := func(s int) bool { return s%4 == 1 }
	cycle := int64(0)
	r.layer["core.bows_pick_ns"] = perCall(nsBatch, func() { cycle++; w.Pick(cycle, ready) })
	// A warp takes a SIB (enters the queue) and then issues (leaves it).
	r.layer["core.bows_onsib_ns"] = perCall(nsBatch, func() {
		cycle++
		w.OnSIB(1)
		w.OnIssue(1, cycle)
	})
	r.layer["core.bows_tick_ns"] = perCall(nsBatch, func() { cycle++; b.Tick(cycle) })
}

func probeMem(r *run) {
	cfg := config.GTX480().Mem
	const words = 1 << 16
	r.layer["mem.new_system_us"] = perCall(usBatch, func() { mem.NewSystem(cfg, 4, 48, words) }) / 1e3

	s := mem.NewSystem(cfg, 1, 48, words)
	cycle := int64(0)
	r.layer["mem.tick_idle_ns"] = perCall(nsBatch, func() { cycle++; s.Tick(cycle) })

	// Sixteen warps' 32-lane requests in flight together, ticked until the
	// last completes, so that the ticks a request waits through are shared
	// as they are in the engine.
	const inFlight = 16
	pending := 0
	reqs := make([]*mem.Request, inFlight)
	for w := range reqs {
		reqs[w] = &mem.Request{WarpSlot: w, Accesses: make([]mem.Access, 32), Done: func(*mem.Request) { pending-- }}
	}
	request := func(op isa.Op, base func(i int) uint32) float64 {
		i := 0
		return perCall(nsBatch/100, func() {
			for _, req := range reqs {
				i++
				req.Op, req.WritesReg = op, op != isa.OpSt
				b := base(i)
				for l := range req.Accesses {
					req.Accesses[l] = mem.Access{Lane: l, Addr: b + uint32(l), V1: 0, V2: 1, GTID: int32(l)}
					if op == isa.OpAtomCAS {
						req.Accesses[l].Addr = b // every lane on one word
					}
				}
				pending++
				s.Port(0).Enqueue(req)
			}
			for pending > 0 {
				cycle++
				s.Tick(cycle)
			}
		}) / inFlight
	}
	stride := func(i int) uint32 { return uint32(i*isa.LineWords) % words } // a new line each time
	same := func(int) uint32 { return 0 }
	r.layer["mem.load_miss_ns_per_req"] = request(isa.OpLd, stride)
	r.layer["mem.load_l1hit_ns_per_req"] = request(isa.OpLd, same)
	r.layer["mem.store_ns_per_req"] = request(isa.OpSt, stride)
	r.layer["mem.atomic_cas_ns_per_req"] = request(isa.OpAtomCAS, same)

	accs := make([]mem.Access, 32)
	for l := range accs {
		accs[l].Addr = uint32(l * 17) // a strided access touching many lines
	}
	r.layer["mem.coalesce_ns"] = perCall(nsBatch, func() { mem.Coalesce(accs) })
}

// nopObserver receives every memory access and does nothing with it.
type nopObserver struct{}

func (nopObserver) Access(*simt.Warp, int32, *isa.Instr, []simt.MemAccess) {}
func (nopObserver) BarrierRelease(*simt.CTA)                               {}

func probeSim(r *run) {
	vecadd := kernelNamed(kernels.SyncFreeSuite(), "VECADD")
	storm := baseOpt(stormFermi(), config.GTO, false)
	r.layer["sim.new_us"] = perCall(usBatch, func() {
		if _, err := sim.New(storm, vecadd.Launch); err != nil {
			r.fail("probe: sim.New: %v", err)
		}
	}) / 1e3

	// wallOf runs the kernels under opt and returns the summed wall time,
	// the median of reps such sums: one side of an A/B.
	wallOf := func(reps int, opt sim.Options, ks ...*kernels.Kernel) float64 {
		return medianOf(reps, func() {
			for _, k := range ks {
				if _, err := warpsched.Run(opt, k); err != nil {
					r.fail("probe: %s: %v", k.Name, err)
				}
			}
		})
	}
	bows := baseOpt(quickFermi(), config.GTO, true)
	quick := kernels.QuickSyncSuite()
	ht := kernelNamed(quick, "HT")

	// Fast-forward on the spin kernels, where it has cycles to skip.
	noFF := bows
	noFF.NoFastForward = true
	spin := []*kernels.Kernel{kernelNamed(quick, "DS"), kernelNamed(quick, "ATM"), ht}
	r.layer["sim.ff_speedup"] = ratio(wallOf(1, noFF, spin...), wallOf(3, bows, spin...))

	// SM sharding on an 8-SM machine: the number the keep-or-delete
	// decision on internal/sim/shard.go needs.
	sm8 := baseOpt(config.GTX480().Scaled(8), config.GTO, true)
	sharded := sm8
	sharded.Shards = 2
	r.layer["sim.shard2_speedup"] = ratio(wallOf(3, sm8, ht), wallOf(3, sharded, ht))

	// What each engine side channel costs when switched on.
	base := wallOf(5, bows, ht)
	with := func(mod func(*sim.Options)) float64 {
		opt := bows
		mod(&opt)
		return ratio(wallOf(5, opt, ht), base) - 1
	}
	r.layer["sim.check_overhead_frac"] = with(func(o *sim.Options) { o.Check = true })
	r.layer["sim.tracer_overhead_frac"] = with(func(o *sim.Options) { o.Tracer = trace.NewRing(4096) })
	r.layer["sim.observer_overhead_frac"] = with(func(o *sim.Options) { o.Observer = nopObserver{} })
	r.layer["sim.profile_overhead_frac"] = with(func(o *sim.Options) { o.Profile = true })
}

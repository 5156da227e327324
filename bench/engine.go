package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"warpsched/internal/config"
	"warpsched/internal/core"
	"warpsched/internal/energy"
	"warpsched/internal/exp"
	"warpsched/internal/kernels"
	"warpsched/internal/metrics"
	"warpsched/internal/sim"
	"warpsched/internal/stats"
)

// engineOp is one simulation of an engine workload: a kernel under one
// machine and policy configuration.
type engineOp struct {
	label string
	k     *kernels.Kernel
	opt   sim.Options
	// viaExp runs the op through the experiment harness (exp.Cfg.Execute:
	// cycle clamp, panic barrier, retries) as a sweep does; otherwise the
	// op is the library path sim.New → Engine.Run → Kernel.Verify, which
	// is what warpsched.Run does. The harness cannot express the zoo
	// dimensions (WASP knobs, TAGE detector), so those ops go direct.
	viaExp bool
	// golden marks an op whose record must equal the committed quick
	// golden manifest; variant groups launch_storm ops for the detector
	// A/B ("off", "ddos_xor", "ddos_mod", "tage").
	golden  bool
	variant string
}

// opResult is what one op left behind: its latency and everything the
// repeat check, the golden diff and the per-layer counters need. The
// memory image is dropped once Verify has seen it.
type opResult struct {
	lat       time.Duration
	err       error
	cycles    int64
	stats     stats.Sim
	counters  map[string]int64
	det       core.DetectionMetrics
	energyPJ  float64
	ffJumps   int64
	ffSkipped int64
	// smTicks and smTicksSkipped count SM ticks the run covered and the
	// ones the event-driven clock elided (an SM stays dormant across a
	// whole-machine jump, so per-SM dormancy covers both).
	smTicks, smTicksSkipped int64
}

// run executes the op, recording spans on l when the pass is traced.
func (op *engineOp) run(l *lane, id int64) opResult {
	t0 := time.Now()
	var res *sim.Result
	var err error
	if op.viaExp {
		l.begin("exp.execute", id)
		out := exp.Cfg{Jobs: 1}.Execute([]exp.Spec{{GPU: op.opt.GPU, Sched: op.opt.Sched,
			BOWS: op.opt.BOWS, DDOS: op.opt.DDOS, Kernel: op.k}})[0]
		l.end()
		res, err = out.Res, out.Err
	} else {
		l.begin("sim.new", id)
		eng, nerr := sim.New(op.opt, op.k.Launch)
		l.end()
		if err = nerr; err == nil {
			l.begin("sim.run", id)
			res, err = eng.Run()
			l.end()
		}
		if err == nil && op.k.Verify != nil {
			l.begin("kernels.verify", id)
			err = op.k.Verify(res.Memory)
			l.end()
		}
	}
	if err != nil {
		return opResult{lat: time.Since(t0), err: fmt.Errorf("%s: %w", op.label, err)}
	}
	l.begin("energy.compute", id)
	e := energy.Compute(energy.ByConfigName(op.opt.GPU.Name), &res.Stats).Total()
	l.end()
	return opResult{lat: time.Since(t0), cycles: res.Stats.Cycles, stats: res.Stats,
		counters: res.Metrics.Counters, det: res.Detection, energyPJ: e,
		ffJumps: res.FFJumps, ffSkipped: res.FFSkippedCycles,
		smTicks:        res.Stats.Cycles * int64(op.opt.GPU.NumSMs),
		smTicksSkipped: res.FFSkippedSMTicks}
}

// enginePass runs every op once, in order, and returns the pass wall time
// and per-op results.
func enginePass(ops []engineOp, rec *recorder, passNo int) (time.Duration, []opResult) {
	out := make([]opResult, len(ops))
	l := rec.lane()
	t0 := time.Now()
	l.begin("bench.worker", int64(passNo))
	for i := range ops {
		out[i] = ops[i].run(l, int64(passNo)<<20|int64(i))
	}
	l.end()
	return time.Since(t0), out
}

// engineWorkload is the shared driver of sync_sweep, issue_bound and
// launch_storm.
type engineWorkload struct {
	// build constructs the kernels and the op list from the seed; it is
	// the workload's set-up.
	build func(r *run) ([]engineOp, error)
	// check, when non-nil, runs once per pass on its results (the golden
	// diff of sync_sweep).
	check func(r *run, l *lane, ops []engineOp, res []opResult)
	// shape, when non-nil, asserts what makes this workload the one it
	// claims to be.
	shape func(r *run, tot *stats.Sim)
}

func (w *engineWorkload) run(r *run) error {
	var ops []engineOp
	var ref []opResult
	var cpu, mallocs, allocKB []float64 // per untraced pass
	r.startClock()
	for r.more() {
		// Set-up runs again before every pass, so that its samples are
		// spread over the run as the passes are and meet the same machine.
		t0 := time.Now()
		var err error
		if ops, err = w.build(r); err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(t0))
		rec := r.passRecorder()
		var m0, m1 runtime.MemStats
		if r.trace {
			runtime.ReadMemStats(&m0)
		}
		wall, res := enginePass(ops, rec, len(r.passes))
		if r.trace {
			runtime.ReadMemStats(&m1)
		}
		p := pass{wall: wall, traced: rec != nil}
		var busy time.Duration
		for i := range res {
			p.lat = append(p.lat, res[i].lat)
			busy += res[i].lat
			if res[i].err != nil {
				r.fail("%v", res[i].err)
			}
		}
		if ref == nil {
			ref = res
		} else {
			for i := range res {
				// The simulator is deterministic: every pass must repeat the
				// first one cycle for cycle and counter for counter.
				if res[i].err == nil && (res[i].cycles != ref[i].cycles || !reflect.DeepEqual(res[i].counters, ref[i].counters)) {
					r.fail("%s: pass %d does not repeat pass 0 (cycles %d vs %d)", ops[i].label, len(r.passes), res[i].cycles, ref[i].cycles)
				}
			}
		}
		if w.check != nil {
			w.check(r, rec.lane(), ops, res)
		}
		if !p.traced {
			cpu = append(cpu, secs(busy))
			mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs)/float64(len(ops)))
			allocKB = append(allocKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(len(ops)))
		}
		r.addPass(p)
	}

	// Simulated totals of one pass; every pass has the same ones.
	var tot stats.Sim
	var cycles, jumps, skipped, smTicks, smSkipped int64
	var ddos, tage core.DetectionMetrics
	for i, o := range ref {
		tot.Add(&o.stats)
		cycles += o.cycles
		jumps += o.ffJumps
		skipped += o.ffSkipped
		smTicks += o.smTicks
		smSkipped += o.smTicksSkipped
		if ops[i].opt.BOWS.Mode == config.BOWSDDOS {
			if ops[i].opt.Detector == config.DetectTAGE {
				tage.Add(o.det)
			} else {
				ddos.Add(o.det)
			}
		}
	}
	if w.shape != nil && !r.tiny {
		w.shape(r, &tot)
	}
	wall := best(r.walls(false))
	set := func(name string, v float64) { r.layer[name] = v }
	set("sim.cycles", float64(cycles))
	set("sim.mcycles_per_s", ratio(float64(cycles)/1e6, wall))
	set("sim.minstrs_per_s", ratio(float64(tot.WarpInstrs)/1e6, wall))
	set("sim.run_ns_per_cycle", ratio(best(cpu)*1e9, float64(cycles)))
	set("sim.run_ns_per_instr", ratio(best(cpu)*1e9, float64(tot.WarpInstrs)))
	set("sim.mallocs_per_run", median(mallocs))
	set("sim.alloc_kb_per_run", median(allocKB))
	set("sim.ff_skipped_cycle_frac", ratio(float64(skipped), float64(cycles)))
	set("sim.ff_skipped_smtick_frac", ratio(float64(smSkipped), float64(smTicks)))
	set("sim.ff_jumps", float64(jumps))
	set("sim.issue_cycle_frac", ratio(float64(tot.IssueCycles), float64(tot.IssueCycles+tot.IdleCycles)))
	set("sim.stall_warp_cycles", float64(tot.StallTotal))
	set("sim.simd_efficiency", tot.SIMDEfficiency())
	set("sim.ipc", ratio(float64(tot.WarpInstrs), float64(cycles)))
	set("core.sib_instrs", float64(tot.SIBInstrs))
	set("core.backoff_blocks", float64(tot.BackoffBlocks))
	set("core.backed_off_frac", tot.BackedOffFraction())
	set("core.ddos_tsdr", ddos.TSDR())
	set("core.ddos_fsdr", ddos.FSDR())
	set("core.tage_tsdr", tage.TSDR())
	set("core.tage_fsdr", tage.FSDR())
	set("mem.l1_hit_rate", ratio(float64(tot.Mem.L1Hits), float64(tot.Mem.L1Accesses)))
	set("mem.l2_hit_rate", ratio(float64(tot.Mem.L2Hits), float64(tot.Mem.L2Accesses)))
	set("mem.transactions", float64(tot.Mem.Transactions))
	set("mem.dram_accesses", float64(tot.Mem.DRAMAccesses))
	set("mem.atomic_ops", float64(tot.Mem.AtomicOps))
	set("mem.atom_retries", float64(tot.Mem.AtomRetries))
	set("mem.mshr_stalls", float64(tot.Mem.MSHRStalls))
	w.derive(r, ops, ref)
	return nil
}

// derive fills the metrics that pair ops up: the BOWS speedup and energy
// saving of the GTO pairs, and launch_storm's detector A/B.
func (w *engineWorkload) derive(r *run, ops []engineOp, ref []opResult) {
	base := map[string]opResult{} // kernel → its GTO run without BOWS
	for i, op := range ops {
		if op.golden && op.opt.Sched == config.GTO && op.opt.BOWS.Mode == config.BOWSOff {
			base[op.k.Name] = ref[i]
		}
	}
	var speed, saving []float64
	for i, op := range ops {
		b, ok := base[op.k.Name]
		if ok && op.golden && op.opt.Sched == config.GTO && op.opt.BOWS.Mode == config.BOWSDDOS && op.opt.Detector == "" {
			speed = append(speed, ratio(float64(b.cycles), float64(ref[i].cycles)))
			saving = append(saving, ratio(b.energyPJ, ref[i].energyPJ))
		}
	}
	r.layer["sim.bows_speedup"] = stats.Gmean(speed)
	r.layer["sim.bows_energy_saving"] = stats.Gmean(saving)

	// Detector A/B: XOR hashing and TAGE leave the sync-free kernels'
	// cycles identical to BOWS off, so the wall-time gap is pure host cost.
	byVariant := map[string][]float64{} // variant → per-pass summed latency
	for _, p := range r.passes {
		if p.traced {
			continue
		}
		sum := map[string]time.Duration{}
		for i, op := range ops {
			if op.variant != "" {
				sum[op.variant] += p.lat[i]
			}
		}
		for v, d := range sum {
			byVariant[v] = append(byVariant[v], secs(d))
		}
	}
	if off := best(byVariant["off"]); off > 0 {
		r.layer["core.ddos_overhead_frac"] = best(byVariant["ddos_xor"])/off - 1
		r.layer["core.tage_overhead_frac"] = best(byVariant["tage"])/off - 1
	}
}

// quickFermi is the 2-SM machine of the quick golden sweep; stormFermi
// the 4-SM machine the full-scale sync-free kernels are sized for.
func quickFermi() config.GPU { return config.GTX480().Scaled(2) }
func stormFermi() config.GPU { return config.GTX480().Scaled(4) }

// baseOpt is sim.DefaultOptions on the given machine and scheduler, with
// the paper's BOWS+DDOS when bows is set.
func baseOpt(gpu config.GPU, sched config.SchedulerKind, bows bool) sim.Options {
	opt := sim.DefaultOptions()
	opt.GPU, opt.Sched = gpu, sched
	if bows {
		opt.BOWS = config.DefaultBOWS()
	}
	return opt
}

// kernelNamed returns the suite's kernel of that name.
func kernelNamed(suite []*kernels.Kernel, name string) *kernels.Kernel {
	for _, k := range suite {
		if k.Name == name {
			return k
		}
	}
	panic("bench: no kernel " + name + " in the suite")
}

func bowsTag(on bool) string {
	if on {
		return "+BOWS"
	}
	return ""
}

// shuffle orders ops by the seed, so that launch order is an input.
func shuffle(ops []engineOp, seed int64) {
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
}

// syncSweep is the sweep researchers run: the idle-bound part of the
// quick golden matrix through the experiment harness, one run after
// another, plus a seeded hashtable contention ladder.
func syncSweep() *engineWorkload {
	var golden *metrics.Manifest
	return &engineWorkload{
		build: func(r *run) ([]engineOp, error) {
			var err error
			golden, err = metrics.ReadFile(filepath.Join(r.root, "internal", "exp", "testdata", "golden", "quick.json"))
			if err != nil {
				return nil, err
			}
			gpu := quickFermi()
			var ops []engineOp
			add := func(k *kernels.Kernel, opt sim.Options, viaExp, gold bool) {
				ops = append(ops, engineOp{label: fmt.Sprintf("%s/%s%s", k.Name, opt.Sched, bowsTag(opt.BOWS.Mode != config.BOWSOff)),
					k: k, opt: opt, viaExp: viaExp, golden: gold})
			}
			cheap := map[string]bool{"TB": true, "ST": true, "HT": true}
			for _, k := range kernels.QuickSyncSuite() {
				if k.Name == "TSP" || (r.tiny && !cheap[k.Name]) {
					continue // TSP issues on 67% of cycles: it belongs to issue_bound
				}
				add(k, baseOpt(gpu, config.GTO, false), true, true)
				add(k, baseOpt(gpu, config.GTO, true), true, true)
				if cheap[k.Name] && !r.tiny {
					add(k, baseOpt(gpu, config.CAWA, false), true, true)
					add(k, baseOpt(gpu, config.CAWA, true), true, true)
					wasp := baseOpt(gpu, config.WASP, true)
					wasp.WaSP = config.DefaultWaSP()
					add(k, wasp, false, true)
					tage := baseOpt(gpu, config.GTO, true)
					tage.Detector, tage.TAGE = config.DetectTAGE, config.DefaultTAGE()
					add(k, tage, false, true)
				}
			}
			// Lock throughput under back-off depends on contention, so the
			// ladder sweeps it: the same inserts into 32, 128 and 512 buckets.
			for _, buckets := range []int{32, 128, 512} {
				if r.tiny && buckets != 512 {
					continue
				}
				k := kernels.NewHashTable(kernels.HashTableConfig{Items: 6144, Buckets: buckets,
					CTAs: 24, CTAThreads: 128, Seed: r.seed})
				k.Name = fmt.Sprintf("HT%d", buckets)
				add(k, baseOpt(gpu, config.GTO, false), true, false)
				add(k, baseOpt(gpu, config.GTO, true), true, false)
			}
			return ops, nil
		},
		check: func(r *run, l *lane, ops []engineOp, res []opResult) {
			l.begin("metrics.manifest", int64(len(r.passes)))
			defer l.end()
			r.attempted++
			for _, d := range goldenDrift(golden, ops, res) {
				r.fail("golden drift: %s", d)
			}
		},
		shape: func(r *run, tot *stats.Sim) {
			if f := ratio(float64(tot.IssueCycles), float64(tot.IssueCycles+tot.IdleCycles)); f > 0.25 {
				r.fail("shape: sync_sweep issues on %.2f of scheduler cycles, want <= 0.25 (idle-bound)", f)
			}
		},
	}
}

// goldenDrift compares the golden-marked ops against the committed quick
// golden manifest with metrics.Diff and returns the difference lines.
// Records are matched on their human-readable identity (kernel, machine,
// scheduler, BOWS and detector descriptors), which is unique within the
// golden sweep; the variant hash is taken over from the golden record.
func goldenDrift(golden *metrics.Manifest, ops []engineOp, res []opResult) []string {
	got := &metrics.Manifest{Schema: metrics.ManifestSchema}
	want := &metrics.Manifest{Schema: metrics.ManifestSchema}
	var out []string
	for i, op := range ops {
		if !op.golden || res[i].err != nil {
			continue
		}
		rec := metrics.RunRecord{Exp: "golden", Kernel: op.k.Name, GPU: op.opt.GPU.Name,
			Sched: string(op.opt.Sched), BOWS: op.opt.BOWS.Desc(), DDOS: op.opt.DDOS.Desc(),
			Cycles: res[i].cycles, Counters: map[string]int64{}}
		if op.opt.Detector == config.DetectTAGE {
			rec.DDOS = op.opt.TAGE.Desc()
		}
		for name, v := range res[i].counters {
			if name != "engine.cycles" {
				rec.Counters[stats.FoldCounterName(name)] += v
			}
		}
		if d := res[i].det; d.TrueSeen > 0 || d.FalseSeen > 0 {
			rec.Counters["ddos.true_sibs_seen"] = int64(d.TrueSeen)
			rec.Counters["ddos.true_sibs_detected"] = int64(d.TrueDetected)
			rec.Counters["ddos.false_sibs_seen"] = int64(d.FalseSeen)
			rec.Counters["ddos.false_sibs_detected"] = int64(d.FalseDetected)
		}
		var match *metrics.RunRecord
		for j := range golden.Runs {
			g := &golden.Runs[j]
			if g.Kernel == rec.Kernel && g.GPU == rec.GPU && g.Sched == rec.Sched && g.BOWS == rec.BOWS && g.DDOS == rec.DDOS {
				match = g
				break
			}
		}
		if match == nil {
			out = append(out, op.label+": no golden record")
			continue
		}
		rec.Variant = match.Variant
		w := *match
		w.Derived = nil // derived floats are functions of the counters compared here
		if err := got.Add(rec); err != nil {
			out = append(out, err.Error())
		}
		want.Runs = append(want.Runs, w)
	}
	return append(out, metrics.Diff(got, want, metrics.DiffOptions{RequireSameRuns: true})...)
}

// issueBound is the per-issue cost of isa → simt → sched: kernels that
// issue on most scheduler cycles, run serially through the library path.
func issueBound() *engineWorkload {
	return &engineWorkload{
		build: func(r *run) ([]engineOp, error) {
			quick := kernels.QuickSyncSuite()
			tsp, st := kernelNamed(quick, "TSP"), kernelNamed(quick, "ST")
			reduce := kernelNamed(kernels.SyncFreeSuite(), "REDUCE")
			var ops []engineOp
			if !r.tiny {
				ops = append(ops,
					engineOp{label: "TSP/GTO", k: tsp, opt: baseOpt(quickFermi(), config.GTO, false)},
					engineOp{label: "TSP/CAWA+BOWS", k: tsp, opt: baseOpt(quickFermi(), config.CAWA, true)})
			}
			copies := 8
			if r.tiny {
				copies = 2
			}
			for i := 0; i < copies; i++ {
				ops = append(ops,
					engineOp{label: "REDUCE/GTO", k: reduce, opt: baseOpt(stormFermi(), config.GTO, false)},
					engineOp{label: "ST/GTO", k: st, opt: baseOpt(quickFermi(), config.GTO, false)})
			}
			shuffle(ops, r.seed)
			return ops, nil
		},
		shape: func(r *run, tot *stats.Sim) {
			if f := ratio(float64(tot.IssueCycles), float64(tot.IssueCycles+tot.IdleCycles)); f < 0.50 {
				r.fail("shape: issue_bound issues on %.2f of scheduler cycles, want >= 0.50", f)
			}
		},
	}
}

// launchStorm is many short launches: the fourteen full-scale sync-free
// kernels under four detector settings, so per-launch fixed cost and
// detector observe cost that can never pay back dominate.
func launchStorm() *engineWorkload {
	return &engineWorkload{
		build: func(r *run) ([]engineOp, error) {
			var ops []engineOp
			for i, k := range kernels.SyncFreeSuite() {
				if r.tiny && i >= 3 {
					break
				}
				off := baseOpt(stormFermi(), config.GTO, false)
				xor := baseOpt(stormFermi(), config.GTO, true)
				mod := baseOpt(stormFermi(), config.GTO, true)
				mod.DDOS.Hash = "MODULO"
				tage := baseOpt(stormFermi(), config.GTO, true)
				tage.Detector, tage.TAGE = config.DetectTAGE, config.DefaultTAGE()
				for _, v := range []struct {
					name string
					opt  sim.Options
				}{{"off", off}, {"ddos_xor", xor}, {"ddos_mod", mod}, {"tage", tage}} {
					ops = append(ops, engineOp{label: k.Name + "/" + v.name, k: k, opt: v.opt, variant: v.name})
				}
			}
			shuffle(ops, r.seed)
			return ops, nil
		},
	}
}

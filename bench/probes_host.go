package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"warpsched"
	"warpsched/internal/config"
	"warpsched/internal/energy"
	"warpsched/internal/exp"
	"warpsched/internal/kernels"
	"warpsched/internal/metrics"
	"warpsched/internal/report"
	"warpsched/internal/server"
	"warpsched/internal/sim"
	"warpsched/internal/stats"
	"warpsched/internal/store"
	"warpsched/internal/trace"
)

// runProbes measures every layer on its own. The probes fill the metrics
// a workload cannot derive from its own passes.
func runProbes(r *run) {
	if r.tiny {
		return // the smoke test checks names and shapes, not layer costs
	}
	probeFrontEnd(r)
	probeSIMT(r)
	probeSched(r)
	probeCore(r)
	probeMem(r)
	probeSim(r)
	probeRecords(r)
	probeExp(r)
	probeServer(r)
	probeStore(r)
	probeReport(r)
}

// probeRecords covers the layers a finished run's numbers pass through.
func probeRecords(r *run) {
	gauss := kernelNamed(kernels.QuickSyncFreeSuite(), "GAUSSIAN")
	opt := baseOpt(quickFermi(), config.GTO, true)
	eng, err := sim.New(opt, gauss.Launch)
	if err != nil {
		r.fail("probe: sim.New: %v", err)
		return
	}
	res, err := eng.Run()
	if err != nil {
		r.fail("probe: run: %v", err)
		return
	}
	counters := res.Metrics.Counters
	r.layer["stats.from_counters_us"] = perCall(nsBatch/10, func() { stats.FromCounters(res.Stats.Cycles, counters) }) / 1e3
	coeff := energy.ByConfigName(opt.GPU.Name)
	r.layer["energy.compute_ns"] = perCall(nsBatch, func() { energy.Compute(coeff, &res.Stats) })
	r.layer["metrics.snapshot_us"] = perCall(nsBatch/10, func() { eng.Metrics().Snapshot() }) / 1e3
	r.layer["metrics.hash_json_us"] = perCall(nsBatch/10, func() { metrics.HashJSON(opt.GPU) }) / 1e3
	ring := trace.NewRing(4096)
	ev := trace.Event{Cycle: 1, Slot: 3, Kind: trace.KindIssue, PC: 12, Lanes: 32}
	r.layer["trace.record_ns"] = perCall(nsBatch, func() { ev.Cycle++; ring.Record(ev) })

	golden, err := metrics.ReadFile(filepath.Join(r.root, "internal", "exp", "testdata", "golden", "quick.json"))
	if err != nil {
		r.fail("probe: %v", err)
		return
	}
	out := filepath.Join(r.tmp, "manifest.json")
	r.layer["metrics.manifest_write_ms"] = medianOf(5, func() {
		if err := golden.WriteFile(out); err != nil {
			r.fail("probe: %v", err)
		}
	}) / 1e6
	full := filepath.Join(r.root, "internal", "report", "testdata", "full.json")
	r.layer["metrics.manifest_read_ms"] = medianOf(3, func() {
		if _, err := metrics.ReadFile(full); err != nil {
			r.fail("probe: %v", err)
		}
	}) / 1e6
}

func probeExp(r *run) {
	gauss := kernelNamed(kernels.QuickSyncFreeSuite(), "GAUSSIAN")
	opt := baseOpt(quickFermi(), config.GTO, false)
	spec := exp.Spec{GPU: opt.GPU, Sched: opt.Sched, BOWS: opt.BOWS, DDOS: opt.DDOS, Kernel: gauss}
	r.layer["exp.variant_hash_us"] = perCall(nsBatch/10, func() { exp.VariantHash(spec) }) / 1e3

	// Harness cost per run, on a sub-millisecond kernel so that it is a
	// measurable share: the same 50 runs through Execute and directly.
	const n = 50
	specs := make([]exp.Spec, n)
	for i := range specs {
		specs[i] = spec
	}
	var via, direct []float64
	viaOnce := func() { via = append(via, medianOf(1, func() { exp.Cfg{Jobs: 1}.Execute(specs) })) }
	directOnce := func() {
		direct = append(direct, medianOf(1, func() {
			for range specs {
				if _, err := warpsched.Run(opt, gauss); err != nil {
					r.fail("probe: %v", err)
				}
			}
		}))
	}
	for i := 0; i < 10; i++ {
		// Alternate which side goes first, so that neither always runs
		// right after the other's garbage.
		if i%2 == 0 {
			viaOnce()
			directOnce()
		} else {
			directOnce()
			viaOnce()
		}
	}
	r.layer["exp.overhead_us_per_run"] = (best(via) - best(direct)) / 1e3 / n

	// The harness's own worker pool: six equal runs, serial against
	// min(nproc,4) workers.
	ht := kernelNamed(kernels.QuickSyncSuite(), "HT")
	hts := make([]exp.Spec, 6)
	for i := range hts {
		hts[i] = exp.Spec{GPU: opt.GPU, Sched: opt.Sched, BOWS: opt.BOWS, DDOS: opt.DDOS, Kernel: ht}
	}
	serial := medianOf(2, func() { exp.Cfg{Jobs: 1}.Execute(hts) })
	jobs := min(runtime.NumCPU(), 4)
	parallel := medianOf(2, func() { exp.Cfg{Jobs: jobs}.Execute(hts) })
	r.layer["exp.parallel_efficiency"] = ratio(serial, float64(jobs)*parallel)

	// The resume journal on the ten-run fig3 sweep: a first sweep appends
	// every run, a second one replays them all. The append cost is the gap
	// to a sweep without a journal, and sits near the noise of a 20 ms run.
	const fig3Runs = 10
	sweep := func(j *exp.Journal) float64 {
		return medianOf(1, func() {
			if _, err := exp.Fig3(exp.Cfg{Quick: true, Jobs: 1, Journal: j}); err != nil {
				r.fail("probe: fig3: %v", err)
			}
		})
	}
	var plain, appending, replaying []float64
	for i := 0; i < 2; i++ {
		plain = append(plain, sweep(nil))
		path := filepath.Join(r.tmp, fmt.Sprintf("resume%d.jsonl", i))
		j, err := exp.OpenJournal(path)
		if err != nil {
			r.fail("probe: %v", err)
			return
		}
		appending = append(appending, sweep(j))
		j.Close()
		t0 := time.Now()
		if j, err = exp.OpenJournal(path); err != nil {
			r.fail("probe: %v", err)
			return
		}
		sweep(j)
		replaying = append(replaying, float64(time.Since(t0).Nanoseconds()))
		if j.Hits() != fig3Runs {
			r.fail("probe: journal replayed %d of %d fig3 runs", j.Hits(), fig3Runs)
		}
		j.Close()
	}
	r.layer["exp.journal_append_us_per_run"] = (median(appending) - median(plain)) / 1e3 / fig3Runs
	r.layer["exp.journal_replay_us_per_run"] = median(replaying) / 1e3 / fig3Runs
}

func probeServer(r *run) {
	var opt server.Options
	reg := &server.JobRequest{Kernel: "HT", Wait: true, Config: server.JobConfig{SMs: 2, Quick: true, BOWS: "ddos"}}
	inline := &server.JobRequest{Name: "alu", Source: aluLoopSrc, Wait: true, GridCTAs: 2, CTAThreads: 64,
		MemWords: 64, Params: []uint32{300}, Config: server.JobConfig{SMs: 1}}
	resolve := func(req *server.JobRequest) float64 {
		return perCall(nsBatch/10, func() {
			if _, rerr := opt.Resolve(req); rerr != nil {
				r.fail("probe: resolve: %s", rerr.Msg)
			}
		}) / 1e3
	}
	r.layer["server.resolve_us"] = resolve(reg)
	r.layer["server.resolve_inline_us"] = resolve(inline)
	spec, _ := opt.Resolve(reg)
	r.layer["server.cachekey_us"] = perCall(nsBatch/10, func() { server.CacheKey(spec) }) / 1e3
	r.layer["server.spec_request_us"] = perCall(usBatch, func() {
		if _, err := server.SpecRequest(spec); err != nil {
			r.fail("probe: SpecRequest: %v", err)
		}
	}) / 1e3

	cache := server.NewCache(64 << 20)
	results := make([]*server.CachedResult, 64)
	for i := range results {
		results[i] = &server.CachedResult{Key: fmt.Sprintf("probe-key-%02d", i), Manifest: make([]byte, 5<<10)}
		cache.Put(results[i])
	}
	i := 0
	r.layer["server.cache_get_ns"] = perCall(nsBatch, func() { i++; cache.Get(results[i%64].Key) })
	r.layer["server.cache_put_ns"] = perCall(nsBatch, func() { i++; cache.Put(results[i%64]) })

	// A live server over a small mix: a direct memory hit, the same hit
	// through the client on one connection, and a stop and restart on the
	// store the mix left behind.
	mix, err := buildMix(1, true)
	if err != nil {
		r.fail("probe: %v", err)
		return
	}
	dir := filepath.Join(r.tmp, "probe-server")
	var starts, stops []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		s, err := startService(dir, 0)
		if err != nil {
			r.fail("probe: %v", err)
			return
		}
		if rep > 0 {
			starts = append(starts, ms(time.Since(t0))) // restart: recovery scan + journal replay
		}
		before := r.failed
		order := make([]int, len(mix.reqs))
		for i := range order {
			order[i] = i
		}
		s.drive(r, nil, mix, order, rep > 0, 0) // the restarts serve from the store
		if rep == 0 && r.failed == before {
			hit := &mix.reqs[0]
			direct := perCall(nsBatch/10, func() {
				if _, rerr := s.srv.Submit(hit); rerr != nil {
					r.fail("probe: submit: %s", rerr.Msg)
				}
			}) / 1e3
			lat := make([]float64, 2000)
			for i := range lat {
				t := time.Now()
				if _, err := s.cli.Submit(context.Background(), hit); err != nil {
					r.fail("probe: %v", err)
				}
				lat[i] = float64(time.Since(t).Nanoseconds()) / 1e3
			}
			r.layer["server.submit_hit_us"] = direct
			r.layer["server.http_overhead_us"] = median(lat) - direct
		}
		t0 = time.Now()
		if err := s.stop(); err != nil {
			r.fail("probe: %v", err)
			return
		}
		stops = append(stops, ms(time.Since(t0)))
	}
	r.layer["server.start_ms"] = median(starts)
	r.layer["server.shutdown_ms"] = median(stops)
}

// probeStore drives the store through its real fsync protocol in the
// benchmark's scratch directory, with 5 KB payloads (the mean manifest).
func probeStore(r *run) {
	const entries = 1000
	payload := bytes.Repeat([]byte("warpsched manifest payload. "), 5<<10/28)
	key := func(i int) string { return fmt.Sprintf("%016x-probe", i*2654435761) }
	dir := filepath.Join(r.tmp, "probe-store")
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		r.fail("probe: %v", err)
		return
	}
	i := 0
	r.layer["store.put_us"] = medianOf(10, func() {
		for n := 0; n < entries/10; n++ {
			if err := st.Put(key(i), payload); err != nil {
				r.fail("probe: put: %v", err)
			}
			i++
		}
	}) / (entries / 10) / 1e3
	g := 0
	r.layer["store.get_us"] = perCall(nsBatch/10, func() {
		g++
		if _, ok := st.Get(key(g % entries)); !ok {
			r.fail("probe: get %s missed", key(g%entries))
		}
	}) / 1e3
	r.layer["store.get_miss_us"] = perCall(nsBatch/10, func() { st.Get("absent-key-0000") }) / 1e3
	stt := st.Stats()
	r.layer["store.bytes_per_entry"] = ratio(float64(stt.Bytes), float64(stt.Entries))
	r.layer["store.open_ms"] = medianOf(3, func() {
		if _, rep, err := store.Open(dir, store.Options{}); err != nil || rep.Recovered != entries {
			r.fail("probe: reopen recovered %d of %d entries: %v", rep.Recovered, entries, err)
		}
	}) / 1e6
	// Reopening under half the byte bound evicts half the entries at open;
	// what that adds to a plain open is the cost of the evictions.
	t0 := time.Now()
	_, rep, err := store.Open(dir, store.Options{MaxBytes: stt.Bytes / 2})
	shrink := float64(time.Since(t0).Nanoseconds())
	if err != nil || rep.EvictedAtOpen < entries/2 {
		r.fail("probe: open under half the bound evicted %d entries: %v", rep.EvictedAtOpen, err)
		return
	}
	r.layer["store.gc_evict_us"] = (shrink - r.layer["store.open_ms"]*1e6) / 1e3 / float64(rep.EvictedAtOpen)
}

func probeReport(r *run) {
	manifest := filepath.Join(r.root, "internal", "report", "testdata", "full.json")
	md := filepath.Join(r.root, "REPRODUCTION.md")
	figs := filepath.Join(r.root, "docs", "figures")
	var set *report.Set
	var rep *report.Report
	var err error
	r.layer["report.load_ms"] = medianOf(3, func() {
		if set, err = report.Load(manifest); err != nil {
			r.fail("probe: %v", err)
		}
	}) / 1e6
	if set == nil {
		return
	}
	r.layer["report.build_ms"] = medianOf(3, func() {
		if rep, err = report.Build(set.Manifest()); err != nil {
			r.fail("probe: %v", err)
		}
	}) / 1e6
	if rep == nil {
		return
	}
	r.layer["report.files_ms"] = medianOf(3, func() { rep.Files(md, figs) }) / 1e6
	r.layer["report.check_ms"] = medianOf(3, func() {
		if err := rep.Check(md, figs); err != nil {
			r.fail("probe: %v", err)
		}
	}) / 1e6
	// The paper reports BOWS 1.5x over CAWA on the GTX480; the archived
	// sweep is quick scale and is validated against nothing else.
	if rep.Fig9 != nil {
		r.layer["report.paper_speedup_gap"] = math.Abs(rep.Fig9.HmeanSpeedup["CAWA"]-1.5) / 1.5
	}
}

// printEngineEstimate splits the time inside the engine among simt,
// sched and mem. The split is an estimate, not a measurement: simulated
// event counts of the traced passes times the microbenchmarks' unit
// costs. Whatever the three do not explain is shown as the remainder.
func (r *run) printEngineEstimate(engine time.Duration) {
	cycles, instrs := r.layer["sim.cycles"], r.layer["sim.ipc"]*r.layer["sim.cycles"]
	if engine == 0 || cycles == 0 || r.layer["simt.exec_alu_full_ns"] == 0 {
		return
	}
	traced := float64(len(r.walls(true)))
	issueFrac := r.layer["sim.issue_cycle_frac"]
	idlePicks := 0.0
	if issueFrac > 0 {
		// Scheduler cycles that did not issue and whose SM tick was not elided.
		idlePicks = instrs * (1/issueFrac - 1) * (1 - r.layer["sim.ff_skipped_smtick_frac"])
	}
	hit := r.layer["mem.l1_hit_rate"]
	est := []struct {
		what string
		ns   float64
	}{
		{"simt  (warp instrs x exec_alu_full_ns)", instrs * r.layer["simt.exec_alu_full_ns"]},
		{"sched (issues x pick_gto_ns + idle x pick_idle_ns)", instrs*r.layer["sched.pick_gto_ns"] + idlePicks*r.layer["sched.pick_idle_ns"]},
		{"mem   (transactions x l1hit/miss ns_per_req)", r.layer["mem.transactions"] *
			(hit*r.layer["mem.load_l1hit_ns_per_req"] + (1-hit)*r.layer["mem.load_miss_ns_per_req"])},
	}
	total := float64(engine.Nanoseconds())
	fmt.Printf("  ESTIMATED split of the %.3f s inside the engine (count x microbenchmark cost, not measured):\n", secs(engine))
	rest := total
	for _, e := range est {
		ns := e.ns * traced
		rest -= ns
		fmt.Printf("    %-52s %5.1f%%\n", e.what, 100*ns/total)
	}
	fmt.Printf("    %-52s %5.1f%%\n", "unexplained remainder", 100*rest/total)
}

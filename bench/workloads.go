package main

import (
	"fmt"
	"sort"
	"time"
)

// workload is one named set of inputs. why is the one-line reason it
// exists, the same sentence BENCHMARK.json carries.
type workload struct {
	name string
	why  string
	run  func(*run) error
}

// workloads lists the four workloads in the order the suite runs them.
var workloads = []workload{
	{"sync_sweep", "the quick golden sync sweep plus a seeded hashtable contention ladder, one run after another: under 25% of scheduler cycles issue, so host time is idle-cycle cost",
		func(r *run) error { return syncSweep().run(r) }},
	{"issue_bound", "TSP, REDUCE and ST run serially: over half of scheduler cycles issue and fast-forward cannot help, so this is the per-issue cost of isa, simt and sched",
		func(r *run) error { return issueBound().run(r) }},
	{"launch_storm", "56 short launches, the 14 full-scale sync-free kernels under four detector settings: per-launch fixed cost and detector observe cost that can never pay back",
		func(r *run) error { return launchStorm().run(r) }},
	{"service", "a warpsimd's life per pass: 96 distinct jobs once each on an empty store, 4000 random requests over the cached keys, then a restart with a small cache and 2000 cyclic requests read from disk",
		serviceTraffic},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// endToEndMetrics are the metrics of an untraced run, with the share of
// the parent's median by which each may worsen. The bounds are as wide as
// the contract allows because the machines the benchmark runs on are
// shared and have noisy minutes (README, Steadiness).
var endToEndMetrics = []struct {
	name, unit, better string
	bound              float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayerMetrics are the metrics of a traced run, in README order. A
// workload that never enters a layer reports 0 for that layer's counters.
var perLayerMetrics = []struct{ name, unit, better string }{
	{"kernels.build_ms", "ms", "lower"},
	{"isa.parse_us_per_kinstr", "us", "lower"},
	{"isa.assembly_us_per_kinstr", "us", "lower"},
	{"analysis.analyze_us_per_kernel", "us", "lower"},
	{"analysis.race_us_per_kernel", "us", "lower"},

	{"simt.exec_alu_full_ns", "ns", "lower"},
	{"simt.exec_alu_sparse_ns", "ns", "lower"},
	{"simt.exec_setp_ns", "ns", "lower"},
	{"simt.exec_bra_div_ns", "ns", "lower"},
	{"simt.exec_ld_ns", "ns", "lower"},
	{"simt.exec_atom_ns", "ns", "lower"},
	{"simt.exec_allocs_per_op", "count", "lower"},
	{"simt.new_warp_us", "us", "lower"},

	{"sched.pick_lrr_ns", "ns", "lower"},
	{"sched.pick_gto_ns", "ns", "lower"},
	{"sched.pick_cawa_ns", "ns", "lower"},
	{"sched.pick_wasp_ns", "ns", "lower"},
	{"sched.pick_idle_ns", "ns", "lower"},

	{"core.ddos_onsetp_ns", "ns", "lower"},
	{"core.ddos_onbranch_ns", "ns", "lower"},
	{"core.tage_onsetp_ns", "ns", "lower"},
	{"core.tage_onbranch_ns", "ns", "lower"},
	{"core.bows_pick_ns", "ns", "lower"},
	{"core.bows_onsib_ns", "ns", "lower"},
	{"core.bows_tick_ns", "ns", "lower"},
	{"core.ddos_overhead_frac", "ratio", "lower"},
	{"core.tage_overhead_frac", "ratio", "lower"},
	{"core.sib_instrs", "count", "lower"},
	{"core.backoff_blocks", "count", "lower"},
	{"core.backed_off_frac", "ratio", "higher"},
	{"core.ddos_tsdr", "ratio", "higher"},
	{"core.ddos_fsdr", "ratio", "lower"},
	{"core.tage_tsdr", "ratio", "higher"},
	{"core.tage_fsdr", "ratio", "lower"},

	{"mem.tick_idle_ns", "ns", "lower"},
	{"mem.load_miss_ns_per_req", "ns", "lower"},
	{"mem.load_l1hit_ns_per_req", "ns", "lower"},
	{"mem.store_ns_per_req", "ns", "lower"},
	{"mem.atomic_cas_ns_per_req", "ns", "lower"},
	{"mem.coalesce_ns", "ns", "lower"},
	{"mem.new_system_us", "us", "lower"},
	{"mem.l1_hit_rate", "ratio", "higher"},
	{"mem.l2_hit_rate", "ratio", "higher"},
	{"mem.transactions", "count", "lower"},
	{"mem.dram_accesses", "count", "lower"},
	{"mem.atomic_ops", "count", "lower"},
	{"mem.atom_retries", "count", "lower"},
	{"mem.mshr_stalls", "count", "lower"},

	{"sim.cycles", "cycles", "lower"},
	{"sim.mcycles_per_s", "Mcycle/s", "higher"},
	{"sim.minstrs_per_s", "Minstr/s", "higher"},
	{"sim.bows_speedup", "ratio", "higher"},
	{"sim.bows_energy_saving", "ratio", "higher"},
	{"sim.new_us", "us", "lower"},
	{"sim.run_ns_per_cycle", "ns", "lower"},
	{"sim.run_ns_per_instr", "ns", "lower"},
	{"sim.mallocs_per_run", "count", "lower"},
	{"sim.alloc_kb_per_run", "KB", "lower"},
	{"sim.ff_speedup", "ratio", "higher"},
	{"sim.ff_skipped_cycle_frac", "ratio", "higher"},
	{"sim.ff_skipped_smtick_frac", "ratio", "higher"},
	{"sim.ff_jumps", "count", "higher"},
	{"sim.shard2_speedup", "ratio", "higher"},
	{"sim.check_overhead_frac", "ratio", "lower"},
	{"sim.tracer_overhead_frac", "ratio", "lower"},
	{"sim.observer_overhead_frac", "ratio", "lower"},
	{"sim.profile_overhead_frac", "ratio", "lower"},
	{"sim.issue_cycle_frac", "ratio", "higher"},
	{"sim.stall_warp_cycles", "count", "lower"},
	{"sim.simd_efficiency", "ratio", "higher"},
	{"sim.ipc", "ratio", "higher"},

	{"stats.from_counters_us", "us", "lower"},
	{"energy.compute_ns", "ns", "lower"},
	{"metrics.snapshot_us", "us", "lower"},
	{"metrics.manifest_write_ms", "ms", "lower"},
	{"metrics.manifest_read_ms", "ms", "lower"},
	{"metrics.hash_json_us", "us", "lower"},
	{"trace.record_ns", "ns", "lower"},

	{"exp.overhead_us_per_run", "us", "lower"},
	{"exp.parallel_efficiency", "ratio", "higher"},
	{"exp.variant_hash_us", "us", "lower"},
	{"exp.journal_append_us_per_run", "us", "lower"},
	{"exp.journal_replay_us_per_run", "us", "lower"},

	{"server.resolve_us", "us", "lower"},
	{"server.resolve_inline_us", "us", "lower"},
	{"server.cachekey_us", "us", "lower"},
	{"server.spec_request_us", "us", "lower"},
	{"server.cache_get_ns", "ns", "lower"},
	{"server.cache_put_ns", "ns", "lower"},
	{"server.submit_hit_us", "us", "lower"},
	{"server.http_overhead_us", "us", "lower"},
	{"server.start_ms", "ms", "lower"},
	{"server.shutdown_ms", "ms", "lower"},
	{"server.engine_runs", "count", "lower"},
	{"server.deduped", "count", "higher"},
	{"server.cache_hit_rate", "ratio", "higher"},
	{"server.disk_hits", "count", "higher"},
	{"server.persisted", "count", "higher"},
	{"server.rejected", "count", "lower"},
	{"server.client_retries", "count", "lower"},
	{"server.queue_wait_p50_ms", "ms", "lower"},
	{"server.p99_ms", "ms", "lower"},
	{"server.cold_ms_per_job", "ms", "lower"},
	{"server.warm_us_per_req", "us", "lower"},
	{"server.spill_us_per_req", "us", "lower"},

	{"store.put_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.get_miss_us", "us", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.gc_evict_us", "us", "lower"},
	{"store.bytes_per_entry", "B", "lower"},

	{"report.load_ms", "ms", "lower"},
	{"report.build_ms", "ms", "lower"},
	{"report.files_ms", "ms", "lower"},
	{"report.check_ms", "ms", "lower"},
	{"report.paper_speedup_gap", "ratio", "lower"},

	// Self-time shares of the traced passes: a span's duration minus what
	// its child spans cover, over the summed root spans.
	{"exp.execute_self_frac", "ratio", "lower"},
	{"sim.new_self_frac", "ratio", "lower"},
	{"sim.run_self_frac", "ratio", "lower"},
	{"kernels.verify_self_frac", "ratio", "lower"},
	{"energy.self_frac", "ratio", "lower"},
	{"metrics.self_frac", "ratio", "lower"},
	{"server.submit_self_frac", "ratio", "lower"},
	{"server.result_self_frac", "ratio", "lower"},
	{"bench.self_frac", "ratio", "lower"},

	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.failed_frac", "ratio", "lower"},
}

// selfFracMetric maps a span name to the metric its self time feeds.
// Every bench.* span is the benchmark's own harness.
var selfFracMetric = map[string]string{
	"exp.execute":      "exp.execute_self_frac",
	"sim.new":          "sim.new_self_frac",
	"sim.run":          "sim.run_self_frac",
	"kernels.verify":   "kernels.verify_self_frac",
	"energy.compute":   "energy.self_frac",
	"metrics.manifest": "metrics.self_frac",
	"server.submit":    "server.submit_self_frac",
	"server.result":    "server.result_self_frac",
	"bench.worker":     "bench.self_frac",
	"bench.client":     "bench.self_frac",
	"bench.verify":     "bench.self_frac",
}

// printSelfTimes prints where the traced passes spent their time, layer
// by layer, and for an engine workload the estimated split of the time
// inside the engine.
func (r *run) printSelfTimes() {
	self, roots := r.rec.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var sum time.Duration
	fmt.Printf("  self time of %d spans over the traced passes (root spans total %.3f s):\n", r.rec.count(), secs(roots))
	for _, n := range names {
		sum += self[n]
		fmt.Printf("    %-20s %10.3f ms  %5.1f%%\n", n, ms(self[n]), 100*ratio(secs(self[n]), secs(roots)))
	}
	fmt.Printf("    %-20s %10.3f ms  %5.1f%% of the root spans\n", "sum", ms(sum), 100*ratio(secs(sum), secs(roots)))
	r.printEngineEstimate(self["sim.run"] + self["exp.execute"])
}

package exp

import (
	"fmt"
	"hash/fnv"
	"sync"

	"warpsched/internal/config"
	"warpsched/internal/energy"
	"warpsched/internal/metrics"
	"warpsched/internal/sim"
	"warpsched/internal/stats"
)

// Collector accumulates one metrics.RunRecord per completed simulation
// into a run manifest. A single Collector serves a whole parallel sweep:
// it is safe for concurrent use from runAll workers, and the resulting
// manifest is independent of the worker count (records are keyed, and
// WriteFile sorts).
type Collector struct {
	mu sync.Mutex
	m  *metrics.Manifest
}

// NewCollector starts a manifest for tool (e.g. "experiments") with the
// given invocation configuration (flag values and the like).
func NewCollector(tool string, cfg map[string]any) *Collector {
	return &Collector{m: metrics.NewManifest(tool, cfg)}
}

func (c *Collector) add(r metrics.RunRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Add(r)
}

// Manifest returns the accumulated manifest, sorted by run key.
func (c *Collector) Manifest() *metrics.Manifest {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.Sort()
	return c.m
}

// Record fills the identity columns of a spec's manifest record —
// kernel, machine, scheduler, the BOWS and detector descriptors, the
// variant hash — and the outcome's headline (error string, cycles). Both
// record builders start from it, so one configuration reads the same in
// every manifest: sweepRecord attaches machine totals (the sweep's
// journal and collector), SMRecord the per-SM counters (warpsimd's
// result manifests, warpsim -stats-json).
func Record(sp Spec, o Outcome) metrics.RunRecord {
	r := metrics.RunRecord{
		Kernel:  sp.Kernel.Name,
		GPU:     sp.GPU.Name,
		Sched:   string(sp.Sched),
		BOWS:    sp.BOWS.Desc(),
		DDOS:    sp.DetectorDesc(),
		Variant: VariantHash(sp),
	}
	if o.Err != nil {
		r.Err = o.Err.Error()
	}
	if o.Res != nil {
		r.Cycles = o.Res.Stats.Cycles
	}
	return r
}

// DetectorDesc returns the descriptor of the spec's active detector: the
// manifest's detector-configuration join key (RunRecord.DDOS). TAGE specs
// carry the TAGE descriptor there — disjoint from every DDOS descriptor
// by construction — so a record of either detector family joins on one
// key under a stable schema (the golden sweep's TAGE records do).
func (sp Spec) DetectorDesc() string {
	if sp.Detector == config.DetectTAGE {
		return sp.TAGE.Desc()
	}
	return sp.DDOS.Desc()
}

// SMRecord is the record of a single-run tool's manifest (warpsimd's
// results, warpsim -stats-json): Record plus the outcome's counters and
// gauges at their full per-SM resolution.
func SMRecord(sp Spec, o Outcome) metrics.RunRecord {
	r := Record(sp, o)
	if o.Res != nil && o.Res.Metrics != nil {
		r.Counters = o.Res.Metrics.Counters
		r.Derived = o.Res.Metrics.Gauges
	}
	return r
}

// sweepRecord converts one finished sweep run into its manifest record,
// with counters folded into machine totals: the one form in which a sweep
// keeps, journals and replays a run. The collector adds the experiment
// tag and the wall time (Cfg.collect).
func sweepRecord(sp *Spec, o Outcome) metrics.RunRecord {
	r := Record(*sp, o)
	res := o.Res
	if res == nil {
		return r
	}
	st := &res.Stats
	r.Counters = aggregateCounters(res.Metrics)
	r.Derived = map[string]float64{
		"simd_efficiency":     st.SIMDEfficiency(),
		"sync_instr_fraction": st.SyncInstrFraction(),
		"sync_mem_fraction":   st.SyncMemFraction(),
		"backed_off_fraction": st.BackedOffFraction(),
		"energy_total_pj":     energy.Compute(energy.ByConfigName(sp.GPU.Name), st).Total(),
	}
	// Detection quality (Table I inputs), from whichever detector the
	// spec selected; the counter family keeps its historical "ddos."
	// names so every consumer joins one schema. Counts only appear when
	// the detector observed at least one backward branch, so records from
	// branch-free kernels stay compact; the DPR means only exist when a
	// branch of that class was actually confirmed.
	det := res.Detection
	if det.TrueSeen > 0 || det.FalseSeen > 0 {
		r.Counters["ddos.true_sibs_seen"] = int64(det.TrueSeen)
		r.Counters["ddos.true_sibs_detected"] = int64(det.TrueDetected)
		r.Counters["ddos.false_sibs_seen"] = int64(det.FalseSeen)
		r.Counters["ddos.false_sibs_detected"] = int64(det.FalseDetected)
	}
	if det.TrueDetected > 0 {
		r.Derived["ddos_true_dpr"] = det.TrueDPR()
	}
	if det.FalseDetected > 0 {
		r.Derived["ddos_false_dpr"] = det.FalseDPR()
	}
	return r
}

// RunOfRecord is sweepRecord read backwards: the derivation input a
// manifest record carries, with the event counts rebuilt through
// stats.FromCounters. A failed run that recorded no counters is an error;
// a watchdog-aborted one (error beside counters) is a lower bound.
func RunOfRecord(rec *metrics.RunRecord) (Run, error) {
	if rec.Cycles == 0 {
		return Run{}, fmt.Errorf("exp: run %s failed without counters: %s", rec.Key(), rec.Err)
	}
	c := rec.Counters
	return Run{
		GPU: rec.GPU, Cycles: rec.Cycles, LowerBound: rec.Err != "",
		Stats: stats.FromCounters(rec.Cycles, c),
		Detection: Detection{
			TrueSeen: c["ddos.true_sibs_seen"], TrueDetected: c["ddos.true_sibs_detected"],
			FalseSeen: c["ddos.false_sibs_seen"], FalseDetected: c["ddos.false_sibs_detected"],
			TrueDPR: rec.Derived["ddos_true_dpr"], FalseDPR: rec.Derived["ddos_false_dpr"],
		},
	}, nil
}

// VariantHash fingerprints everything that can distinguish two runs
// sharing a kernel/GPU/scheduler name: the full machine configuration
// (fig16's queue-lock comparator differs only in Mem.QueueLocks; a daemon
// job's admitted MaxCycles rides in GPU.MaxCycles), the BOWS and DDOS
// parameter sets (table1 and the delay sweep vary these), the detector
// selection with its TAGE parameters and the WASP knobs (the golden
// sweep's zoo records and warpsim vary these), and the launch geometry and
// parameters (fig16 reuses kernel names across bucket counts). It is the
// one run identity: manifest records carry it and ContentKey (the journal's
// and warpsimd's key) embeds it, so a daemon job, a sweep run and a
// warpsim run of the same configuration share a variant. Deliberately
// excluded, like Cfg.Jobs/NoFastForward: anything that cannot change
// simulation results. Manifest.Add cross-checks records that still
// collide, so a dimension missed here surfaces as an error, not a silent
// overwrite.
//
// The zoo dimensions are omitted from the JSON when they are inactive
// (empty detector kind, nil pointers), so every pre-existing variant
// hash — including the committed golden and report manifests — is
// byte-identical to what it was before the zoo existed.
func VariantHash(sp Spec) string {
	var tage *config.TAGE
	var det config.DetectorKind
	if sp.Detector == config.DetectTAGE {
		det, tage = sp.Detector, &sp.TAGE
	}
	var wasp *config.WaSP
	if sp.Sched == config.WASP {
		wasp = &sp.WaSP
	}
	l := &sp.Kernel.Launch
	return metrics.HashJSON(struct {
		GPU      config.GPU
		Sched    config.SchedulerKind
		BOWS     config.BOWS
		DDOS     config.DDOS
		Detector config.DetectorKind `json:",omitempty"`
		TAGE     *config.TAGE        `json:",omitempty"`
		WaSP     *config.WaSP        `json:",omitempty"`
		Kernel   string
		Grid     int
		Threads  int
		MemWords int
		Params   []uint32
	}{sp.GPU, sp.Sched, sp.BOWS, sp.DDOS, det, tage, wasp, sp.Kernel.Name,
		l.GridCTAs, l.CTAThreads, l.MemWords, l.Params})
}

// ContentKey is the content address of a spec's result: warpsimd's cache
// and store file a one-run manifest under it (server.CacheKey, also the
// job id), and the sweep journal files its record under it plus
// journalSuffix. It is FNV-1a over the program's canonical assembly text
// (so two routes to the same instruction stream share results, and any
// instruction change misses), the variant hash over the full
// configuration, and the engine's semantic version (sim.Version, bumped
// whenever results can change). Deterministic simulation makes it sound:
// equal key ⇒ equal result, with no expiry policy.
func ContentKey(sp Spec) string {
	h := fnv.New64a()
	h.Write([]byte(sp.Kernel.Launch.Prog.Assembly()))
	return fmt.Sprintf("%016x-%s-v%d", h.Sum64(), VariantHash(sp), sim.Version)
}

// aggregateCounters folds a per-SM snapshot into machine totals: names
// under an "sm<i>." prefix are summed across SMs under the remainder of
// the name; engine-scoped names pass through. engine.cycles is dropped —
// RunRecord.Cycles carries it.
func aggregateCounters(s *metrics.Snapshot) map[string]int64 {
	if s == nil {
		return nil
	}
	out := make(map[string]int64, len(s.Counters))
	for name, v := range s.Counters {
		if name == "engine.cycles" {
			continue
		}
		out[stats.FoldCounterName(name)] += v
	}
	return out
}

package exp

import (
	"fmt"
	"sync"

	"warpsched/internal/config"
	"warpsched/internal/energy"
	"warpsched/internal/metrics"
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

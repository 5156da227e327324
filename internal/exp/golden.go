package exp

import (
	"warpsched/internal/config"
	"warpsched/internal/metrics"
)

// goldenSpecs is the sweep pinned by the golden-stats regression test:
// the sync suite under the paper's two strongest baselines (GTO, CAWA)
// with and without BOWS on the Fermi machine. Every spec is built exactly
// like the fig9 sweep (same c.fermi() machine, DefaultBOWS, DefaultDDOS),
// so the committed golden counters mirror the fig9 records of the
// manifest a `cmd/experiments -exp all` run emits (differing only in the
// per-record experiment tag) — simulation drift there fails here too.
func goldenSpecs(c Cfg) []Spec {
	gpu := c.fermi()
	var specs []Spec
	for _, k := range c.syncSuite() {
		for _, kind := range []config.SchedulerKind{config.GTO, config.CAWA} {
			specs = append(specs,
				Spec{GPU: gpu, Sched: kind, BOWS: bowsOff(), DDOS: config.DefaultDDOS(), Kernel: k},
				Spec{GPU: gpu, Sched: kind, BOWS: config.DefaultBOWS(), DDOS: config.DefaultDDOS(), Kernel: k})
		}
	}
	// Scheduler-zoo variants pin WaSP scheduling and TAGE-SIB detection the
	// same way; appended after the original sweep so the pre-existing record
	// order — and every pre-existing variant hash — is untouched.
	for _, k := range c.syncSuite() {
		specs = append(specs,
			Spec{GPU: gpu, Sched: config.WASP, BOWS: config.DefaultBOWS(),
				DDOS: config.DefaultDDOS(), WaSP: config.DefaultWaSP(), Kernel: k},
			Spec{GPU: gpu, Sched: config.GTO, BOWS: config.DefaultBOWS(),
				DDOS: config.DefaultDDOS(), Detector: config.DetectTAGE, TAGE: config.DefaultTAGE(), Kernel: k})
	}
	return specs
}

// GoldenManifest runs the golden sweep and returns its manifest.
func GoldenManifest(c Cfg) (*metrics.Manifest, error) {
	col := NewCollector("golden", map[string]any{"quick": c.Quick, "sms": c.SMs})
	c.Collect = col
	c.Exp = "golden"
	if _, err := c.runs(goldenSpecs(c), false); err != nil {
		return nil, err
	}
	return col.Manifest(), nil
}

package exp

import (
	"reflect"
	"testing"

	"warpsched/internal/config"
)

// runOfOutcome is the derivation input built straight from a live
// outcome, as the harness did before a sweep kept only records: the
// reference RunOfRecord is held to.
func runOfOutcome(gpu string, o Outcome) Run {
	det := o.Res.Detection
	return Run{
		GPU: gpu, Cycles: o.Res.Stats.Cycles, LowerBound: o.Err != nil, Stats: &o.Res.Stats,
		Detection: Detection{
			TrueSeen: int64(det.TrueSeen), TrueDetected: int64(det.TrueDetected),
			FalseSeen: int64(det.FalseSeen), FalseDetected: int64(det.FalseDetected),
			TrueDPR: det.TrueDPR(), FalseDPR: det.FalseDPR(),
		},
	}
}

// TestRunOfRecordMatchesOutcome pins the derivations' per-run input, which
// every experiment builds from a run's manifest record (stats.FromCounters
// over the aggregated counters, the "ddos.*" family), to the one a live
// outcome's sim.Result.Stats and .Detection give: they must be equal field
// for field, or the tables (fig1/2/3/16 read event counts directly) would
// publish other numbers than the simulation counted.
func TestRunOfRecordMatchesOutcome(t *testing.T) {
	c := Cfg{Quick: true}
	gpu := c.fermi()
	var sibs, locks int64
	for _, k := range c.syncSuite()[:3] {
		sp := Spec{GPU: gpu, Sched: config.GTO, BOWS: config.DefaultBOWS(), DDOS: config.DefaultDDOS(), Kernel: k}
		o := c.Execute([]Spec{sp})[0]
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		rec := sweepRecord(&sp, o)
		got, err := RunOfRecord(&rec)
		if err != nil {
			t.Fatal(err)
		}
		want := runOfOutcome(gpu.Name, o)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: from record %+v stats %+v\nfrom outcome %+v stats %+v", k.Name, got, *got.Stats, want, *want.Stats)
		}
		sibs += want.Detection.TrueDetected
		locks += want.Stats.Sync.LockSuccess
	}
	if sibs == 0 || locks == 0 {
		t.Error("runs confirmed no SIB or took no lock; the comparison was vacuous")
	}
}

package exp

import (
	"reflect"
	"testing"

	"warpsched/internal/config"
)

// TestRunOfRecordMatchesOutcome pins the two constructions of the
// derivations' per-run input to each other: what the harness builds from
// a live Outcome (sim.Result.Stats and .Detection) and what
// internal/report rebuilds from the manifest record of the same run
// (stats.FromCounters over the aggregated counters, the "ddos.*" family)
// must be equal field for field, or stdout and REPRODUCTION.md could
// publish different numbers from one simulation.
func TestRunOfRecordMatchesOutcome(t *testing.T) {
	c := Cfg{Quick: true}
	gpu := c.fermi()
	var sibs, locks int64
	for _, k := range c.syncSuite()[:3] {
		sp := Spec{GPU: gpu, Sched: config.GTO, BOWS: config.DefaultBOWS(), DDOS: config.DefaultDDOS(), Kernel: k}
		o := c.runAll([]Spec{sp})[0]
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		rec := sweepRecord("test", &sp, o, 0)
		got, err := RunOfRecord(&rec)
		if err != nil {
			t.Fatal(err)
		}
		want := runOf(gpu.Name, o)
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

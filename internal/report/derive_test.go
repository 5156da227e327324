package report

import (
	"fmt"
	"math"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/energy"
	"warpsched/internal/exp"
	"warpsched/internal/metrics"
	"warpsched/internal/stats"
)

// table1Fixture builds a two-kernel table1 manifest with hand-picked
// detection counts for the base configuration and zeroed counts for
// every other sweep point, so the derived precision/recall can be
// checked against arithmetic done by hand.
func table1Fixture(t *testing.T) *metrics.Manifest {
	t.Helper()
	m := metrics.NewManifest("test", nil)
	seen := map[string]bool{}
	base := config.DefaultDDOS().Desc()
	for _, sec := range exp.Table1Layout() {
		for _, sp := range sec.Specs {
			desc := sp.DDOS.Desc()
			if seen[desc] {
				continue
			}
			seen[desc] = true
			for i, kernel := range []string{"HT", "MS"} {
				r := metrics.RunRecord{
					Exp: "table1", Kernel: kernel, GPU: "GTX480/4SM",
					Sched: "GTO", BOWS: "off", DDOS: desc,
					Variant: fmt.Sprintf("v-%s-%d", desc, i),
					Cycles:  1000,
					Counters: map[string]int64{
						"ddos.true_sibs_seen": 0, "ddos.true_sibs_detected": 0,
						"ddos.false_sibs_seen": 0, "ddos.false_sibs_detected": 0,
					},
					Derived: map[string]float64{},
				}
				if desc == base {
					if kernel == "HT" {
						// TSDR 3/4, precision contribution 3 true + 1 false.
						r.Counters["ddos.true_sibs_seen"] = 4
						r.Counters["ddos.true_sibs_detected"] = 3
						r.Counters["ddos.false_sibs_seen"] = 2
						r.Counters["ddos.false_sibs_detected"] = 1
						r.Derived["ddos_true_dpr"] = 0.5
						r.Derived["ddos_false_dpr"] = 0.25
					} else {
						// TSDR 1/2.
						r.Counters["ddos.true_sibs_seen"] = 2
						r.Counters["ddos.true_sibs_detected"] = 1
						r.Derived["ddos_true_dpr"] = 0.3
					}
				}
				if err := m.Add(r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	m.Sort()
	return m
}

func TestTable1PrecisionRecall(t *testing.T) {
	rep, err := Build(table1Fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Table1 == nil {
		t.Fatal("no Table1 section derived")
	}
	var baseRow *exp.DetectionRow
	for bi := range rep.Table1.Blocks {
		b := &rep.Table1.Blocks[bi]
		if b.Name != "hashing function (t=4, l=8)" {
			continue
		}
		for ri := range b.Rows {
			if b.Rows[ri].Label == "XOR, m=k=8" {
				baseRow = &b.Rows[ri]
			}
		}
	}
	if baseRow == nil {
		t.Fatal("base configuration row not found")
	}
	// Hand-computed from the fixture counts:
	//   TSDR  = mean(3/4, 1/2)           = 0.625
	//   FSDR  = mean(1/2)                = 0.5   (only HT saw false SIBs)
	//   DPRs  = mean(0.5, 0.3) and mean(0.25)
	//   precision = (3+1 true)/(4+1... ) = 4/5 = 0.8
	//   recall    = 4 detected / 6 seen  = 0.6667
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"TSDR", baseRow.TSDR, 0.625},
		{"FSDR", baseRow.FSDR, 0.5},
		{"TrueDPR", baseRow.TrueDPR, 0.4},
		{"FalseDPR", baseRow.FalseDPR, 0.25},
		{"Precision", baseRow.Precision, 0.8},
		{"Recall", baseRow.Recall, 4.0 / 6.0},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestEnergyMatchesOnlineDerived locks the offline energy path
// (stats.FromCounters + energy.Compute over manifest counters) to the
// value the simulator derived online at collection time: if the counter
// name mapping or the energy model drifts, the full manifest exposes it.
func TestEnergyMatchesOnlineDerived(t *testing.T) {
	s, err := Load("testdata/full.json")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range s.Experiments() {
		for _, r := range s.Runs(e) {
			want, ok := r.Derived["energy_total_pj"]
			if !ok || r.Counters == nil {
				continue
			}
			sim := stats.FromCounters(r.Cycles, r.Counters)
			got := energy.Compute(energy.ByConfigName(r.GPU), sim).Total()
			if math.Abs(got-want) > math.Max(1e-6, want*1e-9) {
				t.Fatalf("run %s: offline energy %v != online derived %v", r.Key(), got, want)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d runs carried energy_total_pj; manifest suspiciously sparse", checked)
	}
}

// TestDerivedMatchesOnline does the same for the other derived ratios.
func TestDerivedMatchesOnline(t *testing.T) {
	s, err := Load("testdata/full.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range s.Experiments() {
		for _, r := range s.Runs(e) {
			if r.Counters == nil {
				continue
			}
			sim := stats.FromCounters(r.Cycles, r.Counters)
			for name, got := range map[string]float64{
				"simd_efficiency":     sim.SIMDEfficiency(),
				"sync_instr_fraction": sim.SyncInstrFraction(),
				"backed_off_fraction": sim.BackedOffFraction(),
			} {
				want, ok := r.Derived[name]
				if !ok {
					continue
				}
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("run %s: offline %s %v != online %v", r.Key(), name, got, want)
				}
			}
		}
	}
}

package warpsched

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark executes the corresponding
// experiment from internal/exp at the quick scale (2 simulated SMs,
// reduced inputs — see EXPERIMENTS.md) and reports simulated cycles and
// simulated-cycles-per-second as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates every result. cmd/experiments prints the same experiments
// as full text tables with the paper's numbers alongside.

import (
	"fmt"
	"testing"

	"warpsched/internal/exp"
	"warpsched/internal/kernels"
)

// benchCfg is the quick-scale harness configuration.
func benchCfg() exp.Cfg { return exp.Cfg{Quick: true} }

// runExperiment executes a registered experiment b.N times.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	e, err := exp.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1_HashtableMotivation regenerates Figure 1: GPU-vs-CPU
// hashtable time, instruction/memory overhead split, SIMD efficiency.
func BenchmarkFig1_HashtableMotivation(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig2_SyncStatusDistribution regenerates Figure 2: lock
// acquire / wait exit outcomes under LRR, GTO, CAWA.
func BenchmarkFig2_SyncStatusDistribution(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig3_SoftwareBackoff regenerates Figure 3: the software
// back-off delay sweep on the hashtable.
func BenchmarkFig3_SoftwareBackoff(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkTable1_DDOSSensitivity regenerates Table I: TSDR/FSDR/DPR
// across hashing function, width, threshold, history length and sharing.
func BenchmarkTable1_DDOSSensitivity(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig9_FermiExecEnergy regenerates Figure 9: normalized time and
// energy for the sync suite on the Fermi configuration.
func BenchmarkFig9_FermiExecEnergy(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10to13_DelaySweep regenerates Figures 10-13 (one shared
// sweep): execution time, backed-off distribution, lock status and
// dynamic overheads across back-off delay limits.
func BenchmarkFig10to13_DelaySweep(b *testing.B) { runExperiment(b, "delaysweep") }

// BenchmarkFig14_DetectionErrors regenerates Figure 14: MODULO-hash false
// detections throttling sync-free kernels.
func BenchmarkFig14_DetectionErrors(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15_PascalExecEnergy regenerates Figure 15: the Figure 9
// study on the Pascal configuration.
func BenchmarkFig15_PascalExecEnergy(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig16_ContentionSensitivity regenerates Figure 16: the
// hashtable bucket sweep (BOWS speedup and instruction savings).
func BenchmarkFig16_ContentionSensitivity(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkTable3_ImplementationCost regenerates Table III (static
// storage arithmetic; trivially fast).
func BenchmarkTable3_ImplementationCost(b *testing.B) { runExperiment(b, "table3") }

// Per-kernel simulation throughput benchmarks: how fast the simulator
// itself runs each workload (simulated cycles per wall second). These
// use the quick suite: its instances are sized for the 2-SM bench
// machine — in particular ST's cross-CTA wait-and-signal, like the real
// BarnesHut sort, requires every CTA to be co-resident (a cooperative
// launch), so its CTA count must not exceed what the machine hosts.
func BenchmarkSimulator(b *testing.B) {
	quick := map[string]*Benchmark{}
	for _, k := range append(kernels.QuickSyncSuite(), kernels.QuickSyncFreeSuite()...) {
		quick[k.Name] = k
	}
	run := func(b *testing.B, name string, bows, noff bool, sms, shards int) {
		k := quick[name]
		if k == nil {
			b.Fatalf("kernel %s not in quick suite", name)
		}
		opt := DefaultOptions()
		opt.GPU = GTX480().Scaled(sms)
		if bows {
			opt.BOWS = DefaultBOWS()
		}
		opt.NoFastForward = noff
		opt.Shards = shards
		var simCycles int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := Run(opt, k)
			if err != nil {
				b.Fatal(err)
			}
			simCycles += res.Stats.Cycles
		}
		b.ReportMetric(float64(simCycles)/float64(b.N), "simcycles/op")
		b.ReportMetric(float64(simCycles)/b.Elapsed().Seconds(), "simcycles/s")
	}
	// The historical labels (kernel, ±BOWS, 2 SMs, serial, fast-forward on)
	// keep their exact names so runs line up against the committed
	// BENCH_PR1.json / BENCH_PR6.json baselines.
	for _, name := range []string{"HT", "ATM", "ST", "TSP", "NW1", "VECADD"} {
		name := name
		for _, bows := range []bool{false, true} {
			label := name
			if bows {
				label += "+BOWS"
			}
			b.Run(label, func(b *testing.B) { run(b, name, bows, false, 2, 1) })
		}
	}
	// Clock and sharding variants on the spin kernels: +noff disables the
	// event-driven fast-forward (per-cycle clock — the gap to the plain
	// label is the fast-forward speedup on identical simulated work), and
	// the sm8 pair runs an 8-SM machine serially vs. on four shard workers
	// (the gap is the sharding speedup). Results are cycle-identical
	// across all variants of the same kernel+machine; only wall time moves.
	for _, v := range []struct {
		label, kernel string
		noff          bool
		sms, shards   int
	}{
		{"HT+BOWS+noff", "HT", true, 2, 1},
		{"ATM+BOWS+noff", "ATM", true, 2, 1},
		{"ST+BOWS+noff", "ST", true, 2, 1},
		{"TSP+BOWS+noff", "TSP", true, 2, 1},
		{"HT+BOWS+sm8", "HT", false, 8, 1},
		{"HT+BOWS+sm8shards4", "HT", false, 8, 4},
		{"TSP+BOWS+sm8", "TSP", false, 8, 1},
		{"TSP+BOWS+sm8shards4", "TSP", false, 8, 4},
	} {
		v := v
		b.Run(v.label, func(b *testing.B) { run(b, v.kernel, true, v.noff, v.sms, v.shards) })
	}
}

// TestExperimentRegistryResolves drives a cheap experiment end to end
// through the registry (the path cmd/experiments uses).
func TestExperimentRegistryResolves(t *testing.T) {
	e, err := exp.ByName("table3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(exp.Cfg{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(fmt.Sprint(res)) == 0 {
		t.Fatal("empty rendering")
	}
	if _, err := exp.ByName("nope"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

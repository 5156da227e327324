package exp

import (
	"fmt"
	"reflect"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/kernels"
	"warpsched/internal/metrics"
	"warpsched/internal/sim"
)

// testSpec builds a small hashtable run for runner tests.
func testSpec(buckets int) Spec {
	g := config.GTX480().Scaled(2)
	k := kernels.NewHashTable(kernels.HashTableConfig{
		Items: 1024, Buckets: buckets, CTAs: 4, CTAThreads: 64,
	})
	return Spec{GPU: g, Sched: config.GTO, BOWS: config.DefaultBOWS(), DDOS: config.DefaultDDOS(), Kernel: k}
}

// TestRunnerRepeatDeterminism runs the same kernel with the same options
// twice and requires identical statistics and confirmed-SIB sets: the
// simulator must be a pure function of its inputs, the property the
// parallel runner's byte-identical-output guarantee rests on.
func TestRunnerRepeatDeterminism(t *testing.T) {
	sp := testSpec(64)
	a, err := Cfg{}.run(&sp)
	if err != nil {
		t.Fatal(err)
	}
	sp2 := testSpec(64)
	b, err := Cfg{}.run(&sp2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("Stats differ between identical runs:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if !reflect.DeepEqual(a.ConfirmedSIBs, b.ConfirmedSIBs) {
		t.Errorf("ConfirmedSIBs differ: %v vs %v", a.ConfirmedSIBs, b.ConfirmedSIBs)
	}
}

// TestRunnerJobsByteIdentical renders a full experiment at Jobs=1 and
// Jobs=8 and requires byte-identical tables — the runner's core contract
// (and the -j flag's documented guarantee).
func TestRunnerJobsByteIdentical(t *testing.T) {
	render := func(jobs int) string {
		r, err := Fig3(Cfg{Quick: true, Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return r.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("rendered tables differ between -j1 and -j8:\n--- j1 ---\n%s--- j8 ---\n%s", serial, parallel)
	}
}

// TestRunnerSubmissionOrder checks that runAll places each spec's result
// at the spec's submission index regardless of worker count and timing.
func TestRunnerSubmissionOrder(t *testing.T) {
	// Distinct bucket counts give distinct cycle counts; heavier runs
	// first so completion order differs from submission order.
	buckets := []int{16, 32, 64, 128}
	specs := make([]Spec, len(buckets))
	want := make([]int64, len(buckets))
	for i, bk := range buckets {
		specs[i] = testSpec(bk)
		res, err := Cfg{}.run(&specs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Stats.Cycles
	}
	for _, jobs := range []int{1, 2, 8} {
		runs, err := Cfg{Jobs: jobs}.runs(specs, false)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i := range runs {
			if runs[i].Cycles != want[i] {
				t.Errorf("jobs=%d: out[%d] = %d cycles, want %d (order scrambled?)",
					jobs, i, runs[i].Cycles, want[i])
			}
		}
	}
}

// TestRunnerProgressSerialized exercises the progress funnel under the
// race detector: the callback appends to an unsynchronized slice, which
// is only safe if Cfg.Progress honors its never-called-concurrently
// contract.
func TestRunnerProgressSerialized(t *testing.T) {
	specs := make([]Spec, 6)
	for i := range specs {
		specs[i] = testSpec(32 << (i % 3))
	}
	var lines []string
	c := Cfg{Jobs: 4, Progress: func(s string) { lines = append(lines, s) }}
	if _, err := c.runs(specs, false); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(specs) {
		t.Fatalf("progress lines = %d, want %d:\n%v", len(lines), len(specs), lines)
	}
	// Each submission index appears exactly once (completion order varies).
	seen := map[string]bool{}
	for _, l := range lines {
		seen[l[:len(fmt.Sprintf("[%d/%d]", 1, len(specs)))]] = true
	}
	if len(seen) != len(specs) {
		t.Errorf("duplicate or missing progress indices:\n%v", lines)
	}
}

// TestRunnerCollectorJobsInvariant checks that a sweep's manifest is
// independent of the worker count: same keys, same counters.
func TestRunnerCollectorJobsInvariant(t *testing.T) {
	specs := []Spec{testSpec(16), testSpec(32), testSpec(64)}
	collect := func(jobs int) []metrics.RunRecord {
		col := NewCollector("test", map[string]any{"jobs": "varies"})
		c := Cfg{Jobs: jobs, Collect: col}
		if _, err := c.runs(specs, false); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		m := col.Manifest()
		if len(m.Runs) != len(specs) {
			t.Fatalf("jobs=%d: %d records, want %d", jobs, len(m.Runs), len(specs))
		}
		// Wall time is the one legitimately nondeterministic field.
		runs := append([]metrics.RunRecord(nil), m.Runs...)
		for i := range runs {
			runs[i].WallMS = 0
		}
		return runs
	}
	if a, b := collect(1), collect(4); !reflect.DeepEqual(a, b) {
		t.Errorf("manifests differ between -j1 and -j4:\n%v\nvs\n%v", a, b)
	}
}

// TestRunnerFirstErr verifies errors surface at the failing spec's
// submission position, mirroring the serial loops the runner replaced.
func TestRunnerFirstErr(t *testing.T) {
	specs := []Spec{testSpec(64), testSpec(64), testSpec(64)}
	// Sabotage the middle spec: zero CTAs is rejected by sim.New.
	bad := kernels.NewHashTable(kernels.HashTableConfig{
		Items: 64, Buckets: 16, CTAs: 1, CTAThreads: 64,
	})
	bad.Launch.GridCTAs = 0
	specs[1].Kernel = bad
	c := Cfg{Jobs: 3}
	if _, err := c.runs(specs, false); err == nil {
		t.Fatal("expected an error from the sabotaged spec")
	}
	recs := c.runAll(specs)
	if recs[0].Err != "" || recs[2].Err != "" {
		t.Errorf("healthy specs errored: %v / %v", recs[0].Err, recs[2].Err)
	}
	if recs[1].Err == "" {
		t.Error("sabotaged spec did not error")
	}
}

// TestExecuteCarriesZoo: Execute runs a WASP spec and a TAGE spec as the
// machine they describe — the cycles and counters of a direct engine run
// with the same options (whose counter names, "sm0.tage.*" and
// "*.wasp_priority_picks", exist only on that machine), not of the default
// scheduler or detector the exported Spec used to fall back to.
func TestExecuteCarriesZoo(t *testing.T) {
	wasp, tage := testSpec(64), testSpec(64)
	wasp.Sched, wasp.WaSP = config.WASP, config.DefaultWaSP()
	tage.Detector, tage.TAGE = config.DetectTAGE, config.DefaultTAGE()
	specs := []Spec{wasp, tage}
	outs := Cfg{Jobs: 1}.Execute(specs)
	for i, sp := range specs {
		if outs[i].Err != nil {
			t.Fatalf("spec %d: %v", i, outs[i].Err)
		}
		gpu := sp.GPU
		gpu.MaxCycles = expMaxCycles
		eng, err := sim.New(sim.Options{GPU: gpu, Sched: sp.Sched, BOWS: sp.BOWS, DDOS: sp.DDOS,
			Detector: sp.Detector, TAGE: sp.TAGE, WaSP: sp.WaSP}, sp.Kernel.Launch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := outs[i].Res
		if got.Stats != want.Stats {
			t.Errorf("spec %d: Execute stats differ from the direct run:\n%+v\n%+v", i, got.Stats, want.Stats)
		}
		if !reflect.DeepEqual(got.Metrics.Counters, want.Metrics.Counters) {
			t.Errorf("spec %d: Execute counters differ from the direct run", i)
		}
	}
}

// Configuration, options and limits: machine configurations, launch
// validation, the MaxCycles watchdog, the per-SM counters, and the PC
// profile and tracer outputs an Options field switches on.

package sim

import (
	"strings"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/isa"
	"warpsched/internal/mem"
	"warpsched/internal/stats"
	"warpsched/internal/trace"
)

func TestPascalConfigRuns(t *testing.T) {
	const n = 1000
	opt := Options{
		GPU:   config.GTX1080Ti().Scaled(2),
		Sched: config.GTO,
		BOWS:  config.DefaultBOWS(),
		DDOS:  config.DefaultDDOS(),
	}
	launch := Launch{
		Prog:       vecAddProg(t),
		GridCTAs:   4,
		CTAThreads: 128,
		Params:     []uint32{n, 0, n, 2 * n},
		MemWords:   3*n + 64,
		Setup: func(w []uint32) {
			for i := 0; i < n; i++ {
				w[i] = uint32(i)
				w[n+i] = uint32(i)
			}
		},
	}
	eng, err := New(opt, launch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if res.Memory[2*n+i] != uint32(2*i) {
			t.Fatalf("c[%d] = %d", i, res.Memory[2*n+i])
		}
	}
	// The scaled Pascal machine reports counters for its two SMs, no more.
	c := res.Metrics.Counters
	if _, ok := c["sm1.exec.warp_instrs"]; !ok {
		t.Fatal("no counters for the second SM")
	}
	if _, ok := c["sm2.exec.warp_instrs"]; ok {
		t.Fatal("counters for a third SM")
	}
}

func TestNewRejectsBadLaunch(t *testing.T) {
	opt := testOptions(config.GTO)
	good := Launch{Prog: vecAddProg(t), GridCTAs: 1, CTAThreads: 32, MemWords: 64, Params: []uint32{0, 0, 0, 0}}
	cases := []func(*Launch){
		func(l *Launch) { l.Prog = nil },
		func(l *Launch) { l.GridCTAs = 0 },
		func(l *Launch) { l.CTAThreads = 0 },
		func(l *Launch) { l.CTAThreads = 33 * 64 }, // exceeds warp slots
		func(l *Launch) { l.MemWords = 0 },
	}
	for i, mut := range cases {
		l := good
		mut(&l)
		if _, err := New(opt, l); err == nil {
			t.Errorf("case %d: bad launch accepted", i)
		}
	}
}

// TestNewRejectsBadFaults: a fault config with a negative delay or retry
// burst is a configuration error from New. A negative delay would schedule
// a completion before the cycle that schedules it.
func TestNewRejectsBadFaults(t *testing.T) {
	opt := testOptions(config.GTO)
	l := Launch{Prog: vecAddProg(t), GridCTAs: 1, CTAThreads: 32, MemWords: 64, Params: []uint32{0, 0, 0, 0}}
	cases := []struct {
		name string
		mut  func(*mem.FaultConfig)
	}{
		{"latency spike", func(f *mem.FaultConfig) { f.LatencySpike = -1 }},
		{"reorder jitter", func(f *mem.FaultConfig) { f.ReorderJitter = -3 }},
		{"retry burst", func(f *mem.FaultConfig) { f.AtomRetryBurst = -4 }},
	}
	for _, tc := range cases {
		f := mem.DefaultFaults(7)
		tc.mut(&f)
		opt.Faults = &f
		if _, err := New(opt, l); err == nil || !strings.Contains(err.Error(), "must be non-negative") {
			t.Errorf("%s: New returned %v, want a non-negative error", tc.name, err)
		}
	}
	f := mem.DefaultFaults(7)
	opt.Faults = &f
	if _, err := New(opt, l); err != nil {
		t.Errorf("default faults rejected: %v", err)
	}
}

// TestNewRejectsHugeTAGEHistory: a TAGE-SIB geometry whose longest history
// would need a history ring too large to allocate per warp slot is a
// configuration error from New, not an out-of-memory death.
func TestNewRejectsHugeTAGEHistory(t *testing.T) {
	opt := testOptions(config.GTO)
	opt.Detector = config.DetectTAGE
	opt.TAGE = config.DefaultTAGE()
	opt.TAGE.Tables, opt.TAGE.Ratio = 2, 1<<40
	l := Launch{Prog: vecAddProg(t), GridCTAs: 1, CTAThreads: 32, MemWords: 64, Params: []uint32{0, 0, 0, 0}}
	if _, err := New(opt, l); err == nil || !strings.Contains(err.Error(), "longest history") {
		t.Fatalf("New = %v, want a longest-history error", err)
	}
}

// TestNewRejectsParamOutOfRange: a program reading a parameter the launch
// does not supply is a configuration error from New, naming the PC and the
// index — not a panic in the middle of Run.
func TestNewRejectsParamOutOfRange(t *testing.T) {
	l := Launch{Prog: vecAddProg(t), GridCTAs: 1, CTAThreads: 32, MemWords: 64, Params: []uint32{0, 0, 0}}
	const want = "pc=3: ld.param 3 out of range (3 params)" // vecadd's fourth ld.param
	_, err := New(testOptions(config.GTO), l)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("New = %v, want an error containing %q", err, want)
	}
	l.Params = append(l.Params, 0)
	if _, err := New(testOptions(config.GTO), l); err != nil {
		t.Fatalf("New with every parameter supplied: %v", err)
	}
}

func TestWatchdogFiresOnInfiniteLoop(t *testing.T) {
	b := isa.NewBuilder("hang")
	b.Label("top")
	b.Bra("top")
	p := b.MustBuild()
	opt := testOptions(config.GTO)
	opt.GPU.MaxCycles = 10_000
	eng, err := New(opt, Launch{Prog: p, GridCTAs: 1, CTAThreads: 32, MemWords: 64})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run()
	if err == nil || !strings.Contains(err.Error(), "MaxCycles") {
		t.Fatalf("watchdog should fire, got %v", err)
	}
}

func TestPerSMStatsSumToTotal(t *testing.T) {
	const n = 2000
	launch := Launch{
		Prog:       vecAddProg(t),
		GridCTAs:   8,
		CTAThreads: 64,
		Params:     []uint32{n, 0, n, 2 * n},
		MemWords:   3*n + 64,
	}
	eng, err := New(testOptions(config.LRR), launch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum := *stats.FromCounters(res.Stats.Cycles, res.Metrics.Counters); sum != res.Stats {
		t.Fatalf("per-SM counters don't sum to the aggregate:\n%+v\n%+v", sum, res.Stats)
	}
}

func TestPCProfileAccountsEveryIssue(t *testing.T) {
	opt := testOptions(config.GTO)
	opt.Profile = true
	prog := spinPairProg(t)
	eng, err := New(opt, Launch{
		Prog: prog, GridCTAs: 2, CTAThreads: 32,
		Params: []uint32{64, 96, 2}, MemWords: 160,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PCProfile) != int(prog.Len()) {
		t.Fatalf("profile length %d, want %d", len(res.PCProfile), prog.Len())
	}
	var total int64
	for _, n := range res.PCProfile {
		total += n
	}
	if total != res.Stats.WarpInstrs {
		t.Fatalf("profile total %d != warp instrs %d", total, res.Stats.WarpInstrs)
	}
	// The CAS in the spin loop must be among the hottest instructions.
	casPC := int32(-1)
	for pc := int32(0); pc < prog.Len(); pc++ {
		if prog.At(pc).Op == isa.OpAtomCAS {
			casPC = pc
		}
	}
	if res.PCProfile[casPC] == 0 {
		t.Fatal("spin CAS never profiled")
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	ring := trace.NewRing(4096)
	opt := testOptions(config.GTO)
	opt.BOWS = config.FixedBOWS(200)
	opt.Tracer = ring
	prog := spinPairProg(t)
	eng, err := New(opt, Launch{
		Prog: prog, GridCTAs: 2, CTAThreads: 32,
		Params: []uint32{64, 96, 2}, MemWords: 160,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	var issues, sibs, exits int
	for _, e := range ring.Events() {
		switch e.Kind {
		case trace.KindIssue:
			issues++
		case trace.KindSIB:
			sibs++
		case trace.KindBackoffExit:
			exits++
		}
	}
	if ring.Total() == 0 || issues == 0 {
		t.Fatal("tracer saw no issues")
	}
	if res.Stats.SIBInstrs > 0 && sibs == 0 {
		t.Fatal("tracer saw no SIB events despite SIB executions")
	}
	if sibs > 0 && exits == 0 {
		t.Fatal("backed-off warps must eventually exit")
	}
}

package warpsched

import (
	"fmt"
	"strings"
	"testing"

	"warpsched/internal/exp"
)

func quickOpt() Options {
	opt := DefaultOptions()
	opt.GPU = GTX480().Scaled(2)
	return opt
}

func TestPublicAPIRoundTrip(t *testing.T) {
	k, err := Kernel("HT")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(quickOpt(), k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
	e := Energy(quickOpt(), res)
	if e.Total() <= 0 {
		t.Fatal("no energy modeled")
	}
}

func TestKernelRegistry(t *testing.T) {
	names := KernelNames()
	if len(names) != len(SyncSuite())+len(SyncFreeSuite()) {
		t.Fatalf("registry size %d", len(names))
	}
	for _, want := range []string{"TB", "ST", "DS", "ATM", "HT", "TSP", "NW1", "NW2",
		"KMEANS", "VECADD", "REDUCE", "MS", "HL", "STENCIL"} {
		if _, err := Kernel(want); err != nil {
			t.Errorf("kernel %q missing: %v", want, err)
		}
	}
	if _, err := Kernel("nope"); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Errorf("unknown kernel error = %v", err)
	}
}

func TestConfigsExposed(t *testing.T) {
	if GTX480().Name != "GTX480" || GTX1080Ti().Name != "GTX1080Ti" {
		t.Fatal("config constructors wrong")
	}
	if DefaultBOWS().Mode != BOWSDDOS {
		t.Fatal("DefaultBOWS should be DDOS-driven")
	}
	if FixedBOWS(500).DelayLimit != 500 {
		t.Fatal("FixedBOWS wrong")
	}
	if DefaultDDOS().HistoryLen != 8 {
		t.Fatal("DefaultDDOS wrong")
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	k, _ := Kernel("VECADD")
	opt := quickOpt()
	opt.GPU.NumSMs = 0
	if _, err := Run(opt, k); err == nil {
		t.Fatal("invalid GPU config must fail")
	}
	opt = quickOpt()
	opt.Sched = "BOGUS"
	if _, err := Run(opt, k); err == nil {
		t.Fatal("unknown scheduler must fail")
	}
}

func TestBOWSImprovesContendedHashtable(t *testing.T) {
	// The headline qualitative claim: under contention, BOWS reduces
	// dynamic instructions and failed acquires versus the GTO baseline.
	k, err := Kernel("HT")
	if err != nil {
		t.Fatal(err)
	}
	opt := quickOpt()
	opt.Sched = GTO
	base, err := Run(opt, k)
	if err != nil {
		t.Fatal(err)
	}
	opt.BOWS = DefaultBOWS()
	bows, err := Run(opt, k)
	if err != nil {
		t.Fatal(err)
	}
	if bows.Stats.ThreadInstrs >= base.Stats.ThreadInstrs {
		t.Errorf("BOWS should cut dynamic instructions: %d vs %d",
			bows.Stats.ThreadInstrs, base.Stats.ThreadInstrs)
	}
	bf := bows.Stats.Sync.InterWarpFail + bows.Stats.Sync.IntraWarpFail
	gf := base.Stats.Sync.InterWarpFail + base.Stats.Sync.IntraWarpFail
	if bf >= gf {
		t.Errorf("BOWS should cut failed acquires: %d vs %d", bf, gf)
	}
	if len(bows.ConfirmedSIBs) == 0 {
		t.Error("DDOS should confirm the HT spin branch")
	}
}

func TestParseProgramEndToEnd(t *testing.T) {
	prog, err := ParseProgram("incr", `
  ld.param %r10, 0
  mov %r1, %gtid
  mov %r6, 0
top:
  atom.cas %r7, [%r10+0], 0, 1  !acquire,sync
  setp.eq %p1, %r7, 0           !sync
  @!%p1 bra again reconv=again
  ld.volatile %r8, [%r10+32]
  add %r8, %r8, 1
  st.global [%r10+32], %r8
  mov %r6, 1
  membar                        !sync
  atom.exch %r9, [%r10+0], 0    !release,sync
again:
  setp.eq %p2, %r6, 0           !sync
  @%p2 bra top                  !sib,sync
  exit
`)
	if err != nil {
		t.Fatal(err)
	}
	const threads = 256
	bench := NewBenchmark("incr", "locked counter", Launch{
		Prog: prog, GridCTAs: threads / 64, CTAThreads: 64,
		Params: []uint32{0}, MemWords: 128,
	}, func(w []uint32) error {
		if w[32] != threads {
			return fmt.Errorf("counter = %d, want %d", w[32], threads)
		}
		return nil
	})
	opt := quickOpt()
	opt.BOWS = DefaultBOWS()
	res, err := Run(opt, bench)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detection.TSDR() != 1 {
		t.Errorf("parsed SIB not detected: TSDR=%.2f", res.Detection.TSDR())
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

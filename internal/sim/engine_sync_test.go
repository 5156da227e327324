// Synchronization behaviour: lock mutual exclusion under contention, DDOS
// confirming the spin branch, BOWS (DDOS-driven and statically annotated)
// backing spinners off, and run-to-run determinism of a contended kernel.

package sim

import (
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/isa"
)

// spinPairProg: warp-count threads contend for one lock; each thread
// increments a shared counter inside the critical section n times.
func spinPairProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("spinpair")
	b.LdParam(10, 0)   // lock addr
	b.LdParam(11, 1)   // counter addr
	b.LdParam(12, 2)   // iterations per thread
	b.Mov(2, isa.I(0)) // i
	b.While(0, false,
		func() { b.Setp(isa.LT, 0, isa.R(2), isa.R(12)) },
		func() {
			b.Mov(3, isa.I(0)) // done
			b.DoWhile(1, false,
				func() {
					b.AtomCAS(4, isa.R(10), isa.I(0), isa.I(0), isa.I(1))
					b.AnnotateLast(isa.AnnLockAcquire | isa.AnnSync)
					b.Setp(isa.EQ, 2, isa.R(4), isa.I(0))
					b.If(2, false, func() {
						b.LdVol(5, isa.R(11), isa.I(0))
						b.Add(5, isa.R(5), isa.I(1))
						b.St(isa.R(11), isa.I(0), isa.R(5))
						b.Mov(3, isa.I(1))
						b.Membar()
						b.AtomExch(6, isa.R(10), isa.I(0), isa.I(0))
						b.AnnotateLast(isa.AnnLockRelease | isa.AnnSync)
					})
				},
				func() { b.Setp(isa.EQ, 1, isa.R(3), isa.I(0)) })
			b.AnnotateLast(isa.AnnSync)
			b.Add(2, isa.R(2), isa.I(1))
		})
	b.Exit()
	return b.MustBuild()
}

// TestLockMutualExclusion runs a contended increment under every
// scheduler/BOWS combination: the final counter value proves no lost
// updates (linearizable lock), and DDOS must confirm the spin branch.
func TestLockMutualExclusion(t *testing.T) {
	const threads, iters = 96, 4
	prog := spinPairProg(t)
	launch := Launch{
		Prog: prog, GridCTAs: 3, CTAThreads: 32,
		Params:   []uint32{64, 96, iters},
		MemWords: 160,
	}
	for _, kind := range config.Schedulers {
		for _, mode := range []config.BOWSMode{config.BOWSOff, config.BOWSDDOS, config.BOWSStatic} {
			opt := testOptions(kind)
			if mode != config.BOWSOff {
				opt.BOWS = config.DefaultBOWS()
				opt.BOWS.Mode = mode
			}
			eng, err := New(opt, launch)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, mode, err)
			}
			if got := res.Memory[96]; got != threads*iters {
				t.Fatalf("%s/%s: counter = %d, want %d (lost updates!)", kind, mode, got, threads*iters)
			}
			if res.Memory[64] != 0 {
				t.Fatalf("%s/%s: lock still held", kind, mode)
			}
			if mode != config.BOWSOff && res.Stats.Sync.LockSuccess != threads*iters {
				t.Fatalf("%s/%s: lock successes = %d", kind, mode, res.Stats.Sync.LockSuccess)
			}
		}
	}
}

func TestDDOSConfirmsSpinBranchInEngine(t *testing.T) {
	prog := spinPairProg(t)
	launch := Launch{
		Prog: prog, GridCTAs: 3, CTAThreads: 32,
		Params:   []uint32{64, 96, 8},
		MemWords: 160,
	}
	eng, err := New(testOptions(config.GTO), launch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Detection.TSDR() != 1 {
		t.Errorf("TSDR = %.2f (%d/%d)", res.Detection.TSDR(),
			res.Detection.TrueDetected, res.Detection.TrueSeen)
	}
	if res.Detection.FSDR() != 0 {
		t.Errorf("FSDR = %.2f", res.Detection.FSDR())
	}
	found := false
	for _, pc := range res.ConfirmedSIBs {
		for _, want := range prog.TrueSIBs {
			if pc == want {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("confirmed %v, ground truth %v", res.ConfirmedSIBs, prog.TrueSIBs)
	}
}

func TestBOWSReducesSpinInstructionsInEngine(t *testing.T) {
	prog := spinPairProg(t)
	launch := Launch{
		Prog: prog, GridCTAs: 3, CTAThreads: 32,
		Params:   []uint32{64, 96, 8},
		MemWords: 160,
	}
	base, err := New(testOptions(config.GTO), launch)
	if err != nil {
		t.Fatal(err)
	}
	resBase, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(config.GTO)
	opt.BOWS = config.DefaultBOWS()
	bows, err := New(opt, launch)
	if err != nil {
		t.Fatal(err)
	}
	resBows, err := bows.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resBows.Stats.ThreadInstrs >= resBase.Stats.ThreadInstrs {
		t.Errorf("BOWS thread instrs %d should be below baseline %d",
			resBows.Stats.ThreadInstrs, resBase.Stats.ThreadInstrs)
	}
	if resBows.Stats.BackedOffSum == 0 {
		t.Error("BOWS never backed a warp off")
	}
	if len(resBows.FinalDelayLimits) == 0 {
		t.Error("no delay limits reported")
	}
}

func TestStaticBOWSMatchesAnnotations(t *testing.T) {
	// In static mode the warp backs off at the annotated SIB even before
	// DDOS could have confirmed anything.
	prog := spinPairProg(t)
	opt := testOptions(config.GTO)
	opt.BOWS = config.FixedBOWS(500)
	opt.BOWS.Mode = config.BOWSStatic
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
	if res.Stats.BackedOffSum == 0 {
		t.Fatal("static BOWS never engaged")
	}
	if got := res.Memory[96]; got != 64*2 {
		t.Fatalf("counter = %d", got)
	}
}

func TestDeterminism(t *testing.T) {
	// Two identical runs must produce identical statistics.
	k := spinPairProg(t)
	launch := Launch{Prog: k, GridCTAs: 3, CTAThreads: 32,
		Params: []uint32{64, 96, 4}, MemWords: 160}
	opt := testOptions(config.GTO)
	opt.BOWS = config.DefaultBOWS()
	run := func() int64 {
		eng, err := New(opt, launch)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Cycles*1000003 + res.Stats.ThreadInstrs
	}
	if run() != run() {
		t.Fatal("simulation is not deterministic")
	}
}

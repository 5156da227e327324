package sim

import (
	"errors"
	"strings"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/isa"
)

// hangBudget mirrors the experiment harness watchdog; the acceptance bar
// is detection within 10% of it.
const hangBudget int64 = 10_000_000

// hangOptions arms early hang aborts (and with them the invariant
// checker) on the small test machine.
func hangOptions(kind config.SchedulerKind) Options {
	opt := testOptions(kind)
	opt.GPU.MaxCycles = hangBudget
	opt.Check = true
	return opt
}

// deadlockProg is a true deadlock under queue locks: every lane
// CAS-acquires the lock at word 0 and the program exits without ever
// releasing it. One lane wins; every lane of every other warp parks in
// the lock queue waiting for a release that never comes, wedging those
// warps on the CAS result's scoreboard bit.
func deadlockProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("hang-deadlock")
	b.Annotate(isa.AnnSync, func() {
		b.AtomCAS(1, isa.I(0), isa.I(0), isa.I(0), isa.I(1))
		b.AnnotateLast(isa.AnnLockAcquire)
	})
	// The dependency on r1 is what blocks parked warps from running ahead.
	b.Setp(isa.EQ, 0, isa.R(1), isa.I(0))
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func TestHangDeadlockClassified(t *testing.T) {
	opt := hangOptions(config.GTO)
	opt.GPU.Mem.QueueLocks = true
	eng, err := New(opt, Launch{
		Prog: deadlockProg(t), GridCTAs: 2, CTAThreads: 64, MemWords: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run()
	he := requireHang(t, err, HangDeadlock)
	if !he.Report.Mem.OnlyParked() {
		t.Errorf("deadlock report should show only parked lock waiters in flight, got %+v", he.Report.Mem)
	}
	found := false
	for _, w := range he.Report.TopStuck(3) {
		if w.State == "parked-lock" && w.HasPendingLock && w.PendingLock == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no parked-lock warp with pending lock@0 among top stuck: %v", he.Report.TopStuck(3))
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error does not name the classification: %v", err)
	}
}

// livelockProg spins forever on a lock that is pre-held in memory (word 0
// is initialized to 1 and no one ever releases it): warps commit spin
// iterations — SIB executions, failed acquires — but never make useful
// progress.
func livelockProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("hang-livelock")
	b.Annotate(isa.AnnSync, func() {
		b.DoWhile(0, false,
			func() {
				b.AtomCAS(1, isa.I(0), isa.I(0), isa.I(0), isa.I(1))
				b.AnnotateLast(isa.AnnLockAcquire)
			},
			func() { b.Setp(isa.NE, 0, isa.R(1), isa.I(0)) })
	})
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func TestHangLivelockClassified(t *testing.T) {
	eng, err := New(hangOptions(config.GTO), Launch{
		Prog: livelockProg(t), GridCTAs: 1, CTAThreads: 64, MemWords: 64,
		Setup: func(words []uint32) { words[0] = 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run()
	he := requireHang(t, err, HangLivelock)
	if he.Report.IssuedInWindow == 0 || he.Report.SpinInWindow == 0 {
		t.Errorf("livelock report should show issue and spin activity, got issued=%d spin=%d",
			he.Report.IssuedInWindow, he.Report.SpinInWindow)
	}
	if len(he.Report.SIBPT) == 0 {
		t.Error("livelock report carries no SIB-PT snapshot despite an annotated spin branch")
	}
}

// starveProg starves its sibling warp under greedy-then-oldest: warp 0
// runs an always-ready infinite nop loop, so GTO's greedy pick re-issues
// it every cycle and warp 1 — ready the whole time — never runs again.
func starveProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("hang-starve")
	b.Setp(isa.EQ, 0, isa.S(isa.SpecWarpID), isa.I(0))
	b.If(0, false, func() {
		b.Label("spin")
		b.Nop()
		b.Bra("spin")
	})
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func TestHangStarvationClassified(t *testing.T) {
	eng, err := New(hangOptions(config.GTO), Launch{
		Prog: starveProg(t), GridCTAs: 1, CTAThreads: 64, MemWords: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run()
	he := requireHang(t, err, HangStarvation)
	starved := false
	for _, w := range he.Report.Warps {
		if w.State == "ready" && w.IssuedInWindow == 0 {
			starved = true
		}
	}
	if !starved {
		t.Errorf("no ready-but-never-issued warp in report: %v", he.Report.Warps)
	}
	// The starved warp must sort ahead of the spinner.
	if top := he.Report.TopStuck(1); len(top) != 1 || top[0].IssuedInWindow != 0 {
		t.Errorf("most-stuck warp should be the starved one, got %v", top)
	}
}

// TestWatchdogCarriesHangReport checks the passive path: without Check
// the run burns its MaxCycles budget, but the watchdog error still
// carries a classified report.
func TestWatchdogCarriesHangReport(t *testing.T) {
	opt := testOptions(config.GTO)
	opt.GPU.MaxCycles = 500_000 // > 2×DefaultHangWindow so passive sampling runs
	opt.GPU.Mem.QueueLocks = true
	eng, err := New(opt, Launch{
		Prog: deadlockProg(t), GridCTAs: 2, CTAThreads: 64, MemWords: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run()
	var he *HangError
	if !errors.As(err, &he) {
		t.Fatalf("watchdog error is not a *HangError: %v", err)
	}
	if !he.Watchdog || he.MaxCycles != opt.GPU.MaxCycles {
		t.Errorf("Watchdog=%v MaxCycles=%d, want true/%d", he.Watchdog, he.MaxCycles, opt.GPU.MaxCycles)
	}
	if he.Report.Class != HangDeadlock {
		t.Errorf("passive classification = %s, want %s", he.Report.Class, HangDeadlock)
	}
	if !strings.Contains(err.Error(), "exceeded MaxCycles=") {
		t.Errorf("watchdog error lost its MaxCycles message: %v", err)
	}
}

// TestHealthyRunNoHangAbort guards against false positives: a long but
// progressing kernel must complete with hang aborts armed.
func TestHealthyRunNoHangAbort(t *testing.T) {
	opt := hangOptions(config.GTO)
	const n = 4096
	eng, err := New(opt, Launch{
		Prog: vecAddProg(t), GridCTAs: 4, CTAThreads: 128,
		Params:   []uint32{n, 0, n, 2 * n},
		MemWords: 3 * n,
		Setup: func(w []uint32) {
			for i := 0; i < n; i++ {
				w[i], w[n+i] = uint32(i), uint32(2*i)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("healthy run aborted: %v", err)
	}
}

// requireHang asserts err is an early-abort *HangError of the wanted
// class, detected within 10% of the MaxCycles budget.
func requireHang(t *testing.T, err error, want HangClass) *HangError {
	t.Helper()
	var he *HangError
	if !errors.As(err, &he) {
		t.Fatalf("expected *HangError, got %v", err)
	}
	if he.Watchdog {
		t.Fatalf("expected early abort, got watchdog: %v", err)
	}
	if he.Report.Class != want {
		t.Fatalf("classified %s, want %s (err: %v)", he.Report.Class, want, err)
	}
	if he.Report.Cycle > hangBudget/10 {
		t.Errorf("detected at cycle %d, want ≤ %d (10%% of budget)", he.Report.Cycle, hangBudget/10)
	}
	if len(he.Report.TopStuck(3)) == 0 {
		t.Error("hang report names no stuck warps")
	}
	if he.Summary() == "" {
		t.Error("empty hang summary")
	}
	return he
}

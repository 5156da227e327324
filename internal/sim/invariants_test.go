package sim

import (
	"errors"
	"math/bits"
	"strings"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/isa"
	"warpsched/internal/mem"
	"warpsched/internal/sched"
	"warpsched/internal/simt"
)

// lockAddProg increments a shared counter (word 1) under the lock at
// word 0, one critical section per warp (lane 0 takes the lock). It
// exercises the atomic unit, spin loops, volatile loads and lock
// release — the paths the invariant checker watches most closely.
func lockAddProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("inv-lockadd")
	b.Setp(isa.EQ, 1, isa.S(isa.SpecLaneID), isa.I(0))
	b.If(1, false, func() {
		b.Annotate(isa.AnnSync, func() {
			b.DoWhile(0, false, true,
				func() {
					b.AtomCAS(1, isa.I(0), isa.I(0), isa.I(0), isa.I(1))
					b.AnnotateLast(isa.AnnLockAcquire)
				},
				func() { b.Setp(isa.NE, 0, isa.R(1), isa.I(0)) })
			b.LdVol(2, isa.I(1), isa.I(0))
			b.Add(2, isa.R(2), isa.I(1))
			b.St(isa.I(1), isa.I(0), isa.R(2))
			b.Membar()
			b.AtomExch(3, isa.I(0), isa.I(0), isa.I(0))
			b.AnnotateLast(isa.AnnLockRelease)
		})
	})
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

// TestInvariantsCleanRuns enables checking on healthy kernels — compute,
// spin locks, queue locks — and requires zero violations plus correct
// functional output.
func TestInvariantsCleanRuns(t *testing.T) {
	const warps = 4 // 2 CTAs × 64 threads
	cases := []struct {
		name       string
		queueLocks bool
	}{
		{"spin-locks", false},
		{"queue-locks", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := testOptions(config.GTO)
			opt.Check = true
			opt.GPU.Mem.QueueLocks = tc.queueLocks
			eng, err := New(opt, Launch{
				Prog: lockAddProg(t), GridCTAs: 2, CTAThreads: 64, MemWords: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("checked run failed: %v", err)
			}
			if res.Memory[1] != warps {
				t.Errorf("lock-protected counter = %d, want %d", res.Memory[1], warps)
			}
			if res.Stats.Sync.LockSuccess != warps {
				t.Errorf("LockSuccess = %d, want %d", res.Stats.Sync.LockSuccess, warps)
			}
		})
	}
}

// TestInvariantsIdenticalStats proves the checker is observation-only:
// the same run with and without Check produces identical statistics.
func TestInvariantsIdenticalStats(t *testing.T) {
	run := func(check bool) int64 {
		opt := testOptions(config.GTO)
		opt.Check = check
		eng, err := New(opt, Launch{
			Prog: lockAddProg(t), GridCTAs: 2, CTAThreads: 64, MemWords: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Cycles
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("cycle count differs with checking: %d vs %d", a, b)
	}
}

func invTestEngine(t *testing.T) *Engine {
	t.Helper()
	opt := testOptions(config.GTO)
	opt.Check = true
	eng, err := New(opt, Launch{
		Prog: vecAddProg(t), GridCTAs: 2, CTAThreads: 64,
		Params: []uint32{16, 0, 16, 32}, MemWords: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.dispatch() // occupy warp slots so scoreboard checks engage
	return eng
}

func requireViolation(t *testing.T, err error, name string) {
	t.Helper()
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("expected *InvariantError, got %v", err)
	}
	for _, v := range ie.Violations {
		if v.Name == name {
			if v.Detail == "" {
				t.Errorf("violation %s has empty detail", name)
			}
			return
		}
	}
	t.Fatalf("no %q violation in %v", name, ie.Violations)
}

func TestInvariantDetectsStuckScoreboardBit(t *testing.T) {
	eng := invTestEngine(t)
	if err := eng.checkInvariants(false); err != nil {
		t.Fatalf("clean engine reports violations: %v", err)
	}
	eng.sms[0].regPend[0] |= 1 << 7 // no producer will ever clear r7
	requireViolation(t, eng.checkInvariants(false), "scoreboard.stuck-bit")
}

func TestInvariantDetectsPoolImbalance(t *testing.T) {
	eng := invTestEngine(t)
	eng.sms[0].reqGets++ // phantom get: a leaked request
	requireViolation(t, eng.checkInvariants(false), "pool.balance")
	requireViolation(t, eng.checkInvariants(true), "pool.leak")
}

func TestInvariantDetectsSlotCorruption(t *testing.T) {
	eng := invTestEngine(t)
	m := eng.sms[0]
	m.freeSlots = append(m.freeSlots, m.freeSlots[len(m.freeSlots)-1])
	requireViolation(t, eng.checkInvariants(false), "cta.free-slot")

	eng2 := invTestEngine(t)
	eng2.sms[0].ctas = append(eng2.sms[0].ctas, &ctaRec{cta: simt.NewCTA(99, 32, 100, 0)}) // a finished CTA left listed
	requireViolation(t, eng2.checkInvariants(false), "cta.residency")
}

// TestInvariantDetectsMaskDrift corrupts each piece of event-maintained
// slot state in turn: a readiness bit that no refresh would have produced,
// a next-is-mem bit that disagrees with the instruction at the warp's PC,
// a live bit on the wrong side of the warp table, and an accounting mark
// from the future.
func TestInvariantDetectsMaskDrift(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(m *smState)
	}{
		{"ready.mask-drift", func(m *smState) { m.sbReady &^= 1 }}, // slot 0 can issue its ldparam
		{"ready.mask-drift", func(m *smState) { m.nextMem |= 1 }},  // ... which is not a memory operation
		{"live.mask-drift", func(m *smState) { m.live &^= 1 }},
		{"live.mask-drift", func(m *smState) { m.live |= 1 << 47 }}, // the last slot is empty
		{"acct.mark-ahead", func(m *smState) { m.acctMark[0] = m.st.SampleCycles + 1 }},
	}
	for _, tc := range cases {
		eng := invTestEngine(t)
		if err := eng.checkInvariants(false); err != nil {
			t.Fatalf("clean engine reports violations: %v", err)
		}
		tc.corrupt(eng.sms[0])
		requireViolation(t, eng.checkInvariants(false), tc.name)
	}
}

// offReadyPolicy breaks the PickMask contract: whenever some slot can issue
// it returns the lowest slot of its unit that cannot.
type offReadyPolicy struct{ sched.Policy }

func (p offReadyPolicy) PickMask(_ int64, ready uint64) int {
	if off := p.Slots() &^ ready; off != 0 {
		return bits.TrailingZeros64(off)
	}
	return -1
}

// TestInvariantDetectsPickOutsideReadySet: a policy that returns a slot
// whose bit is clear in the ready set it was given would have that warp
// issued regardless of its scoreboard. Under Check the pick is refused and
// the run fails at the next sweep, naming the policy's slot.
func TestInvariantDetectsPickOutsideReadySet(t *testing.T) {
	opt := testOptions(config.GTO)
	opt.Check = true
	opt.CheckEvery = 64
	eng, err := New(opt, Launch{
		Prog: vecAddProg(t), GridCTAs: 2, CTAThreads: 64,
		Params: []uint32{16, 0, 16, 32}, MemWords: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range eng.sms {
		for _, u := range m.units {
			u.policy = offReadyPolicy{u.policy}
		}
	}
	_, err = eng.Run()
	requireViolation(t, err, "pick.not-ready")
	if eng.cycle != 64 {
		t.Errorf("run stopped at cycle %d, want the first sweep at 64", eng.cycle)
	}
	if n := eng.sms[0].st.WarpInstrs; n != 0 {
		t.Errorf("%d instructions issued from refused picks", n)
	}
}

// TestInvariantDetectsBackoffQueueDrift: Wrapped.PickMask skips its FIFO
// when no ready slot is in the backed-off set, so a warp that is backed off
// without being queued (here: marked behind the wrapper's back) would never
// be released. The sweep compares the two.
func TestInvariantDetectsBackoffQueueDrift(t *testing.T) {
	opt := testOptions(config.GTO)
	opt.Check = true
	opt.BOWS = config.DefaultBOWS()
	eng, err := New(opt, Launch{
		Prog: vecAddProg(t), GridCTAs: 2, CTAThreads: 64,
		Params: []uint32{16, 0, 16, 32}, MemWords: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.dispatch()
	m := eng.sms[0]
	m.units[0].wrapped.OnSIB(0) // the engine's path: queued and marked
	if err := eng.checkInvariants(false); err != nil {
		t.Fatalf("clean engine reports violations: %v", err)
	}
	m.bows.OnSIB(1) // marked, never queued
	requireViolation(t, eng.checkInvariants(false), "bows.queue-drift")
}

func TestInvariantErrorFormat(t *testing.T) {
	err := &InvariantError{Violations: []InvariantViolation{
		{Name: "pool.balance", Cycle: 4096, SM: 1, Slot: -1, Detail: "x"},
		{Name: "scoreboard.stuck-bit", Cycle: 4096, SM: 0, Slot: 3, Detail: "y"},
		{Name: "a", Cycle: 1, SM: -1, Slot: -1, Detail: "z"},
		{Name: "b", Cycle: 1, SM: -1, Slot: -1, Detail: "w"},
	}}
	s := err.Error()
	for _, want := range []string{"4 invariant violation(s)", "pool.balance@4096 sm1", "sm0/w3", "(+1 more)"} {
		if !strings.Contains(s, want) {
			t.Errorf("error %q missing %q", s, want)
		}
	}
}

// TestAddrFaultStructured checks the engine converts an out-of-range
// memory access into a context-carrying error instead of crashing: the
// wrapped *mem.AddrFault names the address, the faulting SM/warp and the
// operation, and the partial result is still returned.
func TestAddrFaultStructured(t *testing.T) {
	b := isa.NewBuilder("oob-store")
	b.St(isa.I(1<<20), isa.I(0), isa.I(7))
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(testOptions(config.GTO), Launch{
		Prog: p, GridCTAs: 1, CTAThreads: 32, MemWords: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err == nil {
		t.Fatal("out-of-range store completed without error")
	}
	var f *mem.AddrFault
	if !errors.As(err, &f) {
		t.Fatalf("error does not wrap *mem.AddrFault: %v", err)
	}
	if f.Addr != 1<<20 || f.Size != 64 {
		t.Errorf("fault = addr %d size %d, want %d/%d", f.Addr, f.Size, 1<<20, 64)
	}
	if !f.HasCtx || f.Op != isa.OpSt {
		t.Errorf("fault lacks context: %+v", f)
	}
	if res == nil {
		t.Error("no partial result alongside the fault")
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("unexpected message: %v", err)
	}
}

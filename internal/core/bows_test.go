package core

import (
	"testing"
	"testing/quick"

	"warpsched/internal/config"
	"warpsched/internal/isa"
	"warpsched/internal/sched"
)

func fixedBOWS(limit int64) *BOWS {
	return NewBOWS(config.FixedBOWS(limit), nil, 8)
}

// allReady is a ready set holding every slot of the small units below.
const allReady uint64 = 0b111

func TestBOWSBackedOffDeprioritized(t *testing.T) {
	b := fixedBOWS(100)
	base := sched.NewLRR([]int{0, 1, 2})
	w := Wrap(base, b)
	// Warp 1 executes a SIB: it must lose priority to 0 and 2.
	w.OnSIB(1)
	if !b.BackedOff(1) {
		t.Fatal("warp 1 should be backed off")
	}
	picks := map[int]bool{}
	for c := int64(0); c < 3; c++ {
		s := w.PickMask(c, allReady)
		picks[s] = true
		w.OnIssue(s, c)
		if s == 1 && (c == 0) {
			t.Fatal("backed-off warp picked while others ready")
		}
	}
	if !picks[0] || !picks[2] {
		t.Fatalf("non-backed-off warps should issue first: %v", picks)
	}
}

func TestBOWSBackedOffIssuesWhenAlone(t *testing.T) {
	b := fixedBOWS(0) // no minimum delay
	base := sched.NewLRR([]int{0, 1})
	w := Wrap(base, b)
	w.OnSIB(0)
	got := w.PickMask(5, 1<<0)
	if got != 0 {
		t.Fatalf("lone ready backed-off warp should issue, got %d", got)
	}
	w.OnIssue(0, 5)
	if b.BackedOff(0) {
		t.Fatal("issuing must exit the backed-off state")
	}
}

func TestBOWSPendingDelayGatesNextIteration(t *testing.T) {
	limit := int64(1000)
	b := fixedBOWS(limit)
	base := sched.NewLRR([]int{0})
	w := Wrap(base, b)

	// Iteration 1: warp backs off, issues at cycle 10 (exits, delay arms).
	w.OnSIB(0)
	if got := w.PickMask(10, 1<<0); got != 0 {
		t.Fatalf("pick = %d", got)
	}
	w.OnIssue(0, 10)
	// It hits the SIB again quickly.
	w.OnSIB(0)
	// Before expiry it must not be eligible even with a free slot.
	if got := w.PickMask(200, 1<<0); got != -1 {
		t.Fatalf("warp issued at cycle 200 with pending delay, got %d", got)
	}
	// After limit + max jitter it must be eligible.
	late := 10 + limit + limit/2 + 32 + 1
	if got := w.PickMask(late, 1<<0); got != 0 {
		t.Fatalf("warp not released after delay expiry, got %d", got)
	}
}

func TestBOWSMinimumIntervalProperty(t *testing.T) {
	// Property: consecutive backed-off exits are at least `limit` apart.
	f := func(limitRaw uint16, gaps []uint8) bool {
		limit := int64(limitRaw%5000) + 1
		b := fixedBOWS(limit)
		base := sched.NewLRR([]int{0})
		w := Wrap(base, b)
		cycle := int64(0)
		lastExit := int64(-1 << 30)
		for _, g := range gaps {
			w.OnSIB(0)
			// Advance until eligible.
			cycle += int64(g)
			for w.PickMask(cycle, 1<<0) != 0 {
				cycle++
				if cycle > 1<<40 {
					return false
				}
			}
			if cycle-lastExit < limit && lastExit >= 0 {
				return false
			}
			w.OnIssue(0, cycle)
			lastExit = cycle
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBOWSQueueFIFO(t *testing.T) {
	b := fixedBOWS(0)
	base := sched.NewLRR([]int{0, 1, 2})
	w := Wrap(base, b)
	w.OnSIB(2)
	w.OnSIB(0)
	w.OnSIB(1)
	if len(w.Queue()) != 3 {
		t.Fatalf("queue = %v", w.Queue())
	}
	// All backed off: released in SIB order 2, 0, 1. Released warps are
	// made unready so each pick must come from the queue.
	ready := allReady
	var order []int
	for c := int64(0); c < 3; c++ {
		s := w.PickMask(c, ready)
		order = append(order, s)
		w.OnIssue(s, c)
		ready &^= 1 << uint(s)
	}
	want := []int{2, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("release order = %v, want %v", order, want)
		}
	}
	if len(w.Queue()) != 0 {
		t.Fatalf("queue should drain, holds %v", w.Queue())
	}
}

func TestBOWSDoubleSIBNoDuplicate(t *testing.T) {
	b := fixedBOWS(0)
	w := Wrap(sched.NewLRR([]int{0}), b)
	w.OnSIB(0)
	w.OnSIB(0)
	if len(w.Queue()) != 1 {
		t.Fatalf("duplicate queue entries: %v", w.Queue())
	}
}

func TestBOWSStaticTrigger(t *testing.T) {
	b := NewBOWS(config.BOWS{Mode: config.BOWSStatic, DelayLimit: 0}, nil, 4)
	sib := &isa.Instr{Op: isa.OpBra, Ann: isa.AnnSIB}
	plain := &isa.Instr{Op: isa.OpBra}
	if !b.IsSIB(10, sib) {
		t.Fatal("static mode must trigger on AnnSIB")
	}
	if b.IsSIB(10, plain) {
		t.Fatal("static mode must not trigger on unannotated branches")
	}
}

func TestBOWSDDOSTrigger(t *testing.T) {
	d := NewDDOS(config.DefaultDDOS(), 4)
	b := NewBOWS(config.DefaultBOWS(), d, 4)
	plain := &isa.Instr{Op: isa.OpBra}
	if b.IsSIB(24, plain) {
		t.Fatal("unconfirmed branch must not trigger")
	}
	var cycle int64
	feedSpin(d, 0, 10, &cycle)
	if !b.IsSIB(24, plain) {
		t.Fatal("confirmed branch must trigger regardless of annotation")
	}
}

func TestAdaptiveClimbsUnderSpin(t *testing.T) {
	cfg := config.DefaultBOWS()
	b := NewBOWS(cfg, nil, 4)
	start := b.DelayLimit()
	cycle := int64(0)
	// Saturate windows with spin-attributed instructions.
	for w := 0; w < 20; w++ {
		b.OnSIB(0)
		for i := 0; i < int(minWindowInstrs)+1; i++ {
			b.onIssue(0, cycle)
			b.OnSIB(0) // stay in spin loop
		}
		cycle += cfg.WindowCycles
		b.Tick(cycle)
	}
	if b.DelayLimit() <= start {
		t.Fatalf("limit should climb under pure spinning: %d", b.DelayLimit())
	}
	if b.DelayLimit() > cfg.MaxLimit {
		t.Fatalf("limit exceeds max: %d", b.DelayLimit())
	}
}

func TestAdaptiveStaysAtMinWithoutSpin(t *testing.T) {
	cfg := config.DefaultBOWS()
	b := NewBOWS(cfg, nil, 4)
	cycle := int64(0)
	for w := 0; w < 20; w++ {
		for i := 0; i < int(minWindowInstrs)+1; i++ {
			b.onIssue(0, cycle) // never in a spin loop
		}
		cycle += cfg.WindowCycles
		b.Tick(cycle)
	}
	if b.DelayLimit() != cfg.MinLimit {
		t.Fatalf("limit moved without spinning: %d", b.DelayLimit())
	}
}

func TestAdaptiveClampProperty(t *testing.T) {
	// Whatever the issue pattern, the limit stays within [Min, Max].
	f := func(pattern []bool) bool {
		cfg := config.DefaultBOWS()
		b := NewBOWS(cfg, nil, 2)
		cycle := int64(0)
		for _, spin := range pattern {
			for i := 0; i < int(minWindowInstrs)+1; i++ {
				if spin {
					b.OnSIB(0)
				} else {
					b.OnBackwardNonSIB(0)
				}
				b.onIssue(0, cycle)
			}
			cycle += cfg.WindowCycles
			b.Tick(cycle)
			if b.DelayLimit() < cfg.MinLimit || b.DelayLimit() > cfg.MaxLimit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestJitterBounded(t *testing.T) {
	b := fixedBOWS(1000)
	for i := 0; i < 10000; i++ {
		j := b.jitter()
		if j < 0 || j >= 1000/2+32 {
			t.Fatalf("jitter %d out of bounds", j)
		}
	}
}

func TestWrappedName(t *testing.T) {
	w := Wrap(sched.NewGTO([]int{0}, 0), fixedBOWS(0))
	if w.Name() != "GTO+BOWS" {
		t.Fatalf("name = %q", w.Name())
	}
}

package simt

import (
	"math/bits"
	"testing"
	"testing/quick"

	"warpsched/internal/isa"
)

// run executes w functionally, applying memory against words, for at most
// maxSteps instructions.
func run(t *testing.T, w *Warp, words []uint32, maxSteps int) {
	t.Helper()
	for step := 0; step < maxSteps && !w.Done; step++ {
		in := w.NextInstr()
		res := w.Execute(int64(step))
		for i := range res.Mem {
			a := &res.Mem[i]
			switch in.Op {
			case isa.OpLd:
				w.SetReg(a.Lane, in.Dst, words[a.Addr])
			case isa.OpSt:
				words[a.Addr] = a.V1
			case isa.OpAtomCAS:
				old := words[a.Addr]
				if old == a.V1 {
					words[a.Addr] = a.V2
				}
				w.SetReg(a.Lane, in.Dst, old)
			case isa.OpAtomExch:
				old := words[a.Addr]
				words[a.Addr] = a.V1
				w.SetReg(a.Lane, in.Dst, old)
			case isa.OpAtomAdd:
				old := words[a.Addr]
				words[a.Addr] = old + a.V1
				w.SetReg(a.Lane, in.Dst, old)
			}
		}
	}
	if !w.Done {
		t.Fatalf("warp did not finish in %d steps", maxSteps)
	}
}

func newTestWarp(prog *isa.Program, lanes int) *Warp {
	cta := NewCTA(0, int32(lanes), 1, 1)
	w := NewWarp(prog, cta, 0, 0, 0, 0, lanes)
	return w
}

func TestSpecialRegisters(t *testing.T) {
	b := isa.NewBuilder("specials")
	b.Mov(1, isa.S(isa.SpecTID))
	b.Mov(2, isa.S(isa.SpecLaneID))
	b.Mov(3, isa.S(isa.SpecNTID))
	b.Mov(4, isa.S(isa.SpecCTAID))
	b.Mov(5, isa.S(isa.SpecGTID))
	b.Exit()
	p := b.MustBuild()
	cta := NewCTA(3, 64, 5, 2)
	w := NewWarp(p, cta, 1, 0, 0, 3*64+32, 32) // second warp of CTA 3
	for !w.Done {
		w.Execute(0)
	}
	for lane := 0; lane < 32; lane++ {
		if got := w.Reg(lane, 1); got != uint32(32+lane) {
			t.Fatalf("lane %d tid = %d, want %d", lane, got, 32+lane)
		}
		if got := w.Reg(lane, 2); got != uint32(lane) {
			t.Fatalf("lane %d laneid = %d", lane, got)
		}
		if got := w.Reg(lane, 3); got != 64 {
			t.Fatalf("ntid = %d", got)
		}
		if got := w.Reg(lane, 4); got != 3 {
			t.Fatalf("ctaid = %d", got)
		}
		if got := w.Reg(lane, 5); got != uint32(3*64+32+lane) {
			t.Fatalf("gtid = %d", got)
		}
	}
}

func TestALUSemantics(t *testing.T) {
	b := isa.NewBuilder("alu")
	b.Mov(1, isa.I(-7))
	b.Mov(2, isa.I(3))
	b.Add(10, isa.R(1), isa.R(2))  // -4
	b.Sub(11, isa.R(1), isa.R(2))  // -10
	b.Mul(12, isa.R(1), isa.R(2))  // -21
	b.Div(13, isa.R(1), isa.R(2))  // -2 (trunc toward zero)
	b.Rem(14, isa.R(1), isa.R(2))  // -1
	b.Div(15, isa.R(1), isa.I(0))  // 0 (guarded)
	b.Rem(16, isa.R(1), isa.I(0))  // 0
	b.Min(17, isa.R(1), isa.R(2))  // -7 signed
	b.Max(18, isa.R(1), isa.R(2))  // 3
	b.Shl(19, isa.I(1), isa.I(33)) // shift mod 32 → 2
	b.Shr(20, isa.I(-4), isa.I(1)) // logical: huge positive
	b.Exit()
	p := b.MustBuild()
	w := newTestWarp(p, 1)
	for !w.Done {
		w.Execute(0)
	}
	want := map[isa.Reg]int32{10: -4, 11: -10, 12: -21, 13: -2, 14: -1,
		15: 0, 16: 0, 17: -7, 18: 3, 19: 2}
	for r, v := range want {
		if got := int32(w.Reg(0, r)); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
	if got := w.Reg(0, 20); got != uint32(0xFFFFFFFC)>>1 {
		t.Errorf("logical shr wrong: %d", w.Reg(0, 20))
	}
}

func TestSelp(t *testing.T) {
	b := isa.NewBuilder("selp")
	b.Mov(1, isa.S(isa.SpecLaneID))
	b.And(2, isa.R(1), isa.I(1))
	b.Setp(isa.EQ, 0, isa.R(2), isa.I(0))
	b.Selp(3, 0, isa.I(100), isa.I(200))
	b.Exit()
	p := b.MustBuild()
	w := newTestWarp(p, 32)
	for !w.Done {
		w.Execute(0)
	}
	for lane := 0; lane < 32; lane++ {
		want := uint32(200)
		if lane%2 == 0 {
			want = 100
		}
		if got := w.Reg(lane, 3); got != want {
			t.Fatalf("lane %d selp = %d, want %d", lane, got, want)
		}
	}
}

func TestGuardedInstructionSkipsLanes(t *testing.T) {
	b := isa.NewBuilder("guard")
	b.Mov(1, isa.S(isa.SpecLaneID))
	b.Setp(isa.LT, 0, isa.R(1), isa.I(4))
	b.Mov(2, isa.I(1))
	b.Emit(isa.Instr{Op: isa.OpMov, Dst: 2, A: isa.I(9), Guard: 0})
	b.Exit()
	p := b.MustBuild()
	w := newTestWarp(p, 8)
	for !w.Done {
		w.Execute(0)
	}
	for lane := 0; lane < 8; lane++ {
		want := uint32(1)
		if lane < 4 {
			want = 9
		}
		if got := w.Reg(lane, 2); got != want {
			t.Fatalf("lane %d r2 = %d, want %d", lane, got, want)
		}
	}
}

// TestStackMaskPartition checks the central SIMT stack invariant under a
// randomized divergence pattern: whenever the warp diverges, the taken
// and not-taken masks partition the active mask, and all lanes eventually
// reconverge with the full mask.
func TestStackMaskPartition(t *testing.T) {
	f := func(sel uint32, sel2 uint32) bool {
		b := isa.NewBuilder("q")
		b.Mov(1, isa.S(isa.SpecLaneID))
		b.Mov(5, isa.I(0))
		// Diverge on bit pattern of sel: lanes where (sel>>lane)&1 == 1.
		b.Mov(2, isa.I(int32(sel)))
		b.Shr(3, isa.R(2), isa.R(1))
		b.And(3, isa.R(3), isa.I(1))
		b.Setp(isa.EQ, 0, isa.R(3), isa.I(1))
		b.IfElse(0, false,
			func() {
				b.Mov(2, isa.I(int32(sel2)))
				b.Shr(3, isa.R(2), isa.R(1))
				b.And(3, isa.R(3), isa.I(1))
				b.Setp(isa.EQ, 1, isa.R(3), isa.I(1))
				b.IfElse(1, false,
					func() { b.Add(5, isa.R(5), isa.I(3)) },
					func() { b.Add(5, isa.R(5), isa.I(5)) })
			},
			func() { b.Add(5, isa.R(5), isa.I(7)) })
		b.Add(5, isa.R(5), isa.I(100)) // post-reconvergence, all lanes
		b.Exit()
		p, err := b.Build()
		if err != nil {
			return false
		}
		w := newTestWarp(p, 32)
		for step := 0; step < 200 && !w.Done; step++ {
			active := w.ActiveMask()
			res := w.Execute(0)
			if res.Taken != 0 && res.NotTaken != 0 {
				if res.Taken&res.NotTaken != 0 || res.Taken|res.NotTaken != active {
					return false
				}
			}
		}
		if !w.Done {
			return false
		}
		for lane := 0; lane < 32; lane++ {
			want := uint32(7)
			if sel>>lane&1 == 1 {
				if sel2>>lane&1 == 1 {
					want = 3
				} else {
					want = 5
				}
			}
			if w.Reg(lane, 5) != want+100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExitPartialLanes(t *testing.T) {
	// Half the lanes exit early; the rest continue and write.
	b := isa.NewBuilder("exit")
	b.Mov(1, isa.S(isa.SpecLaneID))
	b.Setp(isa.LT, 0, isa.R(1), isa.I(16))
	b.If(0, false, func() { b.Exit() })
	b.St(isa.I(0), isa.R(1), isa.R(1))
	b.Exit()
	p := b.MustBuild()
	w := newTestWarp(p, 32)
	words := make([]uint32, 64)
	run(t, w, words, 100)
	for lane := 0; lane < 32; lane++ {
		want := uint32(0)
		if lane >= 16 {
			want = uint32(lane)
		}
		if words[lane] != want {
			t.Fatalf("words[%d] = %d, want %d", lane, words[lane], want)
		}
	}
}

func TestPartialWarpValidMask(t *testing.T) {
	b := isa.NewBuilder("partial")
	b.Mov(1, isa.I(1))
	b.Exit()
	p := b.MustBuild()
	w := newTestWarp(p, 20)
	if bits.OnesCount32(w.ActiveMask()) != 20 {
		t.Fatalf("partial warp active mask = %08x", w.ActiveMask())
	}
	res := w.Execute(0)
	if res.ActiveLanes() != 20 {
		t.Fatalf("ActiveLanes = %d, want 20", res.ActiveLanes())
	}
}

func TestBarrierReleaseOnLastArrival(t *testing.T) {
	b := isa.NewBuilder("bar")
	b.Bar()
	b.Exit()
	p := b.MustBuild()
	cta := NewCTA(0, 96, 1, 3)
	warps := []*Warp{
		NewWarp(p, cta, 0, 0, 0, 0, 32),
		NewWarp(p, cta, 1, 1, 0, 32, 32),
		NewWarp(p, cta, 2, 2, 0, 64, 32),
	}
	for i, w := range warps {
		w.Execute(0) // bar
		released := cta.Arrive(w)
		if i < 2 && released {
			t.Fatalf("barrier released after %d arrivals", i+1)
		}
		if i < 2 && !w.AtBarrier {
			t.Fatal("warp should block at barrier")
		}
	}
	for _, w := range warps {
		if w.AtBarrier {
			t.Fatal("all warps should be released")
		}
	}
}

func TestBarrierReleasesWhenOtherWarpExits(t *testing.T) {
	// One warp exits without reaching the barrier; the barrier must then
	// release on the remaining live warps.
	bExit := isa.NewBuilder("bexit")
	bExit.Exit()
	pExit := bExit.MustBuild()
	bBar := isa.NewBuilder("bbar")
	bBar.Bar()
	bBar.Exit()
	pBar := bBar.MustBuild()

	cta := NewCTA(0, 64, 1, 2)
	w0 := NewWarp(pBar, cta, 0, 0, 0, 0, 32)
	w1 := NewWarp(pExit, cta, 1, 1, 0, 32, 32)
	w0.Execute(0)
	cta.Arrive(w0)
	if !w0.AtBarrier {
		t.Fatal("w0 should wait")
	}
	w1.Execute(0) // exit → warpFinished → release
	if !w1.Done {
		t.Fatal("w1 should be done")
	}
	if w0.AtBarrier {
		t.Fatal("barrier must release when the other warp exits")
	}
}

func TestSetpProfiledLane(t *testing.T) {
	// The profiled thread is latched to the lowest lane taking each
	// backward branch; setps the profiled thread does not execute produce
	// no record (guarded setps by other lanes must never be mixed in).
	b := isa.NewBuilder("prof")
	b.Mov(1, isa.S(isa.SpecLaneID))
	b.Setp(isa.GE, 0, isa.R(1), isa.I(8))
	b.If(0, false, func() {
		b.Setp(isa.EQ, 1, isa.R(1), isa.R(1)) // only lanes ≥ 8 active
	})
	// A loop whose backward branch is taken once, by lanes ≥ 16 only:
	// the profiled thread re-latches to lane 16.
	b.Mov(2, isa.I(0))
	b.Label("top")
	b.Add(2, isa.R(2), isa.I(1))
	b.Setp(isa.GE, 2, isa.R(1), isa.I(16))
	b.Setp(isa.EQ, 3, isa.R(2), isa.I(1))
	// take once (r2==1) and only for lanes >= 16: p4 = both
	b.Selp(3, 2, isa.R(2), isa.I(99)) // lanes <16: r3=99; lanes>=16: r3=r2
	b.Setp(isa.EQ, 3, isa.R(3), isa.I(1))
	b.BraP(3, false, "top", "")
	b.Setp(isa.EQ, 4, isa.R(1), isa.R(1)) // full-warp setp after loop
	b.Exit()
	p := b.MustBuild()
	w := newTestWarp(p, 32)
	var innerRecorded bool
	var lastLane = -1
	for !w.Done {
		res := w.Execute(0)
		if res.IsSetp {
			lastLane = res.SetpLane
			if res.Instr.PDst == 1 {
				innerRecorded = true
			}
		}
	}
	if innerRecorded {
		t.Fatal("guarded setp not executed by the profiled thread must not be recorded")
	}
	if lastLane != 16 {
		t.Fatalf("profiled lane after backward branch = %d, want 16", lastLane)
	}
}

func TestMemAccessOperands(t *testing.T) {
	b := isa.NewBuilder("mem")
	b.Mov(1, isa.S(isa.SpecLaneID))
	b.AtomCAS(2, isa.I(100), isa.R(1), isa.I(0), isa.I(1))
	b.Exit()
	p := b.MustBuild()
	w := newTestWarp(p, 4)
	w.Execute(0) // mov
	res := w.Execute(0)
	if len(res.Mem) != 4 {
		t.Fatalf("accesses = %d, want 4", len(res.Mem))
	}
	for i, a := range res.Mem {
		if a.Addr != uint32(100+i) || a.V1 != 0 || a.V2 != 1 || a.Lane != i {
			t.Fatalf("access %d = %+v", i, a)
		}
	}
}

package simt_test

import (
	"testing"

	"warpsched/internal/isa"
	"warpsched/internal/kernels"
	"warpsched/internal/simt"
)

// TestWarpRegisterFileSized pins the register file's footprint: a warp
// holds rows for the registers its program names, and a register outside
// them reads 0 and grows the file when written, without changing what the
// program computes.
func TestWarpRegisterFileSized(t *testing.T) {
	// REDUCE names r2..r12.
	reduce := kernels.NewReduce(64, 256).Launch.Prog
	w := simt.Decode(reduce).NewWarp(simt.NewCTA(0, 256, 64, 8), 0, 0, 0, 0, 32)
	if got := simt.RegRows(w); got != 13 {
		t.Fatalf("REDUCE warp holds %d register rows, want 13", got)
	}
	if got := w.Reg(5, 40); got != 0 {
		t.Fatalf("unnamed r40 reads %d, want 0", got)
	}
	w.SetReg(5, 40, 7)
	if got, rows := w.Reg(5, 40), simt.RegRows(w); got != 7 || rows != 41 {
		t.Fatalf("after SetReg r40: reads %d with %d rows, want 7 with 41", got, rows)
	}

	// A loop naming r1..r2, seeded the way a benchmark probe seeds it:
	// r1 = lane, and r10 — which the program never names — cleared. It must
	// compute exactly what it computes on a full 64-row file.
	b := isa.NewBuilder("loop")
	b.Label("top")
	b.Add(2, isa.R(2), isa.R(1))
	b.Bra("top")
	b.Exit()
	prog := b.MustBuild()
	sized := simt.NewWarp(prog, simt.NewCTA(0, 32, 1, 1), 0, 0, 0, 0, 32)
	full := simt.NewWarp(prog, simt.NewCTA(0, 32, 1, 1), 0, 0, 0, 0, 32)
	if got := simt.RegRows(sized); got != 3 {
		t.Fatalf("loop warp holds %d register rows, want 3", got)
	}
	for l := 0; l < 32; l++ {
		sized.SetReg(l, 1, uint32(l))
		sized.SetReg(l, 10, 0)
		full.SetReg(l, isa.NumRegs-1, 0)
		full.SetReg(l, 1, uint32(l))
	}
	if got := simt.RegRows(full); got != isa.NumRegs {
		t.Fatalf("full warp holds %d register rows, want %d", got, isa.NumRegs)
	}
	for i := 0; i < 100; i++ {
		sized.Execute(int64(i))
		full.Execute(int64(i))
	}
	for l := 0; l < 32; l++ {
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if got, want := sized.Reg(l, r), full.Reg(l, r); got != want {
				t.Fatalf("lane %d r%d = %d, want %d", l, r, got, want)
			}
		}
		if got, want := sized.Reg(l, 2), uint32(50*l); got != want {
			t.Fatalf("lane %d r2 = %d after 50 iterations, want %d", l, got, want)
		}
	}
}

package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCmpEval(t *testing.T) {
	cases := []struct {
		cmp  Cmp
		a, b int32
		want bool
	}{
		{EQ, 5, 5, true}, {EQ, 5, 6, false},
		{NE, 5, 6, true}, {NE, 5, 5, false},
		{LT, -1, 0, true}, {LT, 0, -1, false}, {LT, 3, 3, false},
		{LE, 3, 3, true}, {LE, 4, 3, false},
		{GT, 0, -1, true}, {GT, -1, 0, false},
		{GE, 3, 3, true}, {GE, 2, 3, false},
		// Signedness: 0xFFFFFFFF is -1, less than 0.
		{LT, -1, 1, true}, {GT, 1, -1, true},
	}
	for _, c := range cases {
		if got := c.cmp.Eval(uint32(c.a), uint32(c.b)); got != c.want {
			t.Errorf("%v.Eval(%d, %d) = %v, want %v", c.cmp, c.a, c.b, got, c.want)
		}
	}
}

func TestCmpEvalComplementary(t *testing.T) {
	// LT and GE partition, as do GT/LE and EQ/NE (property-based).
	f := func(a, b uint32) bool {
		return LT.Eval(a, b) != GE.Eval(a, b) &&
			GT.Eval(a, b) != LE.Eval(a, b) &&
			EQ.Eval(a, b) != NE.Eval(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpClassification(t *testing.T) {
	for _, op := range []Op{OpLd, OpSt, OpAtomCAS, OpAtomExch, OpAtomAdd, OpAtomMax} {
		if !op.IsMem() {
			t.Errorf("%v should be a memory op", op)
		}
	}
	for _, op := range []Op{OpAdd, OpBra, OpSetp, OpBar, OpMembar, OpExit, OpNop} {
		if op.IsMem() {
			t.Errorf("%v should not be a memory op", op)
		}
	}
	for _, op := range []Op{OpAtomCAS, OpAtomExch, OpAtomAdd, OpAtomMax} {
		if !op.IsAtomic() {
			t.Errorf("%v should be atomic", op)
		}
	}
	if OpLd.IsAtomic() || OpSt.IsAtomic() {
		t.Error("ld/st must not be atomic")
	}
}

func TestWritesReg(t *testing.T) {
	writes := []Op{OpMov, OpAdd, OpSub, OpMul, OpDiv, OpRem, OpMin, OpMax,
		OpAnd, OpOr, OpXor, OpShl, OpShr, OpSelp, OpLd, OpAtomCAS,
		OpAtomExch, OpAtomAdd, OpAtomMax, OpLdParam}
	for _, op := range writes {
		in := Instr{Op: op}
		if !in.WritesReg() {
			t.Errorf("%v should write a register", op)
		}
	}
	for _, op := range []Op{OpSt, OpBra, OpSetp, OpBar, OpMembar, OpExit, OpNop} {
		in := Instr{Op: op}
		if in.WritesReg() {
			t.Errorf("%v should not write a register", op)
		}
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		prog Program
		want string
	}{
		{"empty", Program{Name: "e"}, "empty"},
		{"bad target", Program{Name: "b", Code: []Instr{
			{Op: OpBra, Target: 5, Reconv: NoReconv, Guard: NoGuard},
		}}, "out of range"},
		{"cond without reconv", Program{Name: "c", Code: []Instr{
			{Op: OpBra, Target: 0, Reconv: NoReconv, Guard: 0},
			{Op: OpExit, Guard: NoGuard},
		}}, "without reconvergence"},
		{"bad dest reg", Program{Name: "d", Code: []Instr{
			{Op: OpMov, Dst: NumRegs, A: I(0), Guard: NoGuard},
		}}, "out of range"},
		{"selp source pred out of range", Program{Name: "s", Code: []Instr{
			{Op: OpSelp, Dst: 0, PSrc: NumPreds, A: I(1), B: I(2), Guard: NoGuard},
			{Op: OpExit, Guard: NoGuard},
		}}, "selp source predicate"},
		{"guard pred out of range", Program{Name: "g", Code: []Instr{
			{Op: OpMov, Dst: 0, A: I(0), Guard: NumPreds},
			{Op: OpExit, Guard: NoGuard},
		}}, "guard predicate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.prog.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, c.want)
			}
		})
	}
}

func TestOperandString(t *testing.T) {
	if R(5).String() != "%r5" || I(-3).String() != "-3" || S(SpecTID).String() != "%tid" {
		t.Errorf("operand rendering wrong: %s %s %s", R(5), I(-3), S(SpecTID))
	}
}

package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddMerges(t *testing.T) {
	a := Sim{Cycles: 100, WarpInstrs: 10, ThreadInstrs: 200, SyncThreadInstrs: 50,
		ActiveLaneSum: 200, BackedOffSum: 5, ResidentSum: 10, SampleCycles: 100}
	b := Sim{Cycles: 150, WarpInstrs: 20, ThreadInstrs: 100, SyncThreadInstrs: 25,
		ActiveLaneSum: 100, BackedOffSum: 15, ResidentSum: 30, SampleCycles: 100}
	a.Mem = Mem{Transactions: 7, SyncTransactions: 3, L1Accesses: 5, L1Hits: 2}
	b.Mem = Mem{Transactions: 3, SyncTransactions: 1, DRAMAccesses: 9}
	a.Sync = SyncEvents{LockSuccess: 1, InterWarpFail: 2}
	b.Sync = SyncEvents{LockSuccess: 3, IntraWarpFail: 4, WaitExitSuccess: 5, WaitExitFail: 6}

	a.Add(&b)
	if a.Cycles != 150 {
		t.Errorf("Cycles should take the max: %d", a.Cycles)
	}
	if a.WarpInstrs != 30 || a.ThreadInstrs != 300 || a.SyncThreadInstrs != 75 {
		t.Errorf("instruction counters wrong: %+v", a)
	}
	if a.Mem.Transactions != 10 || a.Mem.SyncTransactions != 4 || a.Mem.DRAMAccesses != 9 {
		t.Errorf("mem counters wrong: %+v", a.Mem)
	}
	if a.Sync.LockSuccess != 4 || a.Sync.InterWarpFail != 2 || a.Sync.IntraWarpFail != 4 {
		t.Errorf("sync counters wrong: %+v", a.Sync)
	}
}

// fillInt64s sets every int64 field (recursing into nested structs) to x.
func fillInt64s(v reflect.Value, x int64) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(x)
		case reflect.Struct:
			fillInt64s(f, x)
		}
	}
}

// TestAddCoversEveryField catches the classic drift bug: a counter added
// to Sim/Mem/SyncEvents but forgotten in the corresponding add method.
// Merging a fully populated Sim into a zero one must reproduce it exactly
// (sums add to the zero; Cycles takes the max with zero).
func TestAddCoversEveryField(t *testing.T) {
	var a, b Sim
	fillInt64s(reflect.ValueOf(&a).Elem(), 3)
	b.Add(&a)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Add dropped a field:\n got %+v\nwant %+v", b, a)
	}
}

func TestDerivedMetrics(t *testing.T) {
	s := Sim{WarpInstrs: 10, ActiveLaneSum: 160, ThreadInstrs: 160, SyncThreadInstrs: 40}
	if got := s.SIMDEfficiency(); got != 0.5 {
		t.Errorf("SIMD = %f, want 0.5", got)
	}
	if got := s.SyncInstrFraction(); got != 0.25 {
		t.Errorf("sync frac = %f", got)
	}
	s.Mem = Mem{Transactions: 10, SyncTransactions: 4}
	if got := s.SyncMemFraction(); got != 0.4 {
		t.Errorf("sync mem frac = %f", got)
	}
	s.BackedOffSum, s.ResidentSum = 25, 100
	if got := s.BackedOffFraction(); got != 0.25 {
		t.Errorf("backed-off frac = %f", got)
	}
}

func TestZeroDivisionSafety(t *testing.T) {
	var s Sim
	if s.SIMDEfficiency() != 0 || s.SyncInstrFraction() != 0 ||
		s.SyncMemFraction() != 0 || s.BackedOffFraction() != 0 {
		t.Fatal("zero-value stats must not panic or return NaN")
	}
}

func TestSyncEventTotals(t *testing.T) {
	e := SyncEvents{LockSuccess: 2, InterWarpFail: 3, IntraWarpFail: 1,
		WaitExitSuccess: 4, WaitExitFail: 6}
	if e.LockAttempts() != 6 {
		t.Errorf("lock attempts = %d", e.LockAttempts())
	}
	if e.WaitAttempts() != 10 {
		t.Errorf("wait attempts = %d", e.WaitAttempts())
	}
}

func TestAddCommutativeOnCounters(t *testing.T) {
	// Property: merging a then b equals merging b then a (Cycles uses max,
	// everything else sums — both commutative).
	f := func(a1, a2, b1, b2 uint16) bool {
		x := Sim{Cycles: int64(a1), ThreadInstrs: int64(a2)}
		y := Sim{Cycles: int64(b1), ThreadInstrs: int64(b2)}
		x1, y1 := x, y
		x1.Add(&y)
		y1.Add(&x)
		return x1.Cycles == y1.Cycles && x1.ThreadInstrs == y1.ThreadInstrs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{0.75, 0.5}); m != 0.625 {
		t.Fatalf("Mean(0.75,0.5) = %v", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty Mean should be 0")
	}
}

func TestGmean(t *testing.T) {
	if g := Gmean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("Gmean(2,8) = %f", g)
	}
	if Gmean(nil) != 0 {
		t.Fatal("empty Gmean should be 0")
	}
	if Gmean([]float64{1, 0}) != 0 {
		t.Fatal("non-positive values should yield 0")
	}
}

func TestGmeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []uint16) bool {
		var vs []float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			v := float64(r%1000) + 1
			vs = append(vs, v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if len(vs) == 0 {
			return true
		}
		g := Gmean(vs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package core

import (
	"slices"
	"testing"
	"testing/quick"

	"warpsched/internal/config"
)

func ddosCfg() config.DDOS { return config.DefaultDDOS() }

// feedSpin drives one warp through n iterations of a two-setp spin loop
// with constant operand values, executing the backward branch at pc 24
// after each iteration.
func feedSpin(d *DDOS, slot int, n int, cycle *int64) {
	for i := 0; i < n; i++ {
		d.OnSetp(slot, 15, 0, 1, 0) // CAS result vs 0: constant failure
		d.OnSetp(slot, 23, 0, 0, 0) // done flag vs 0: constant
		d.OnBranch(slot, 24, true, *cycle)
		*cycle += 100
	}
}

func TestDDOSDetectsConstantSpin(t *testing.T) {
	d := NewDDOS(ddosCfg(), 4)
	var cycle int64
	feedSpin(d, 0, 10, &cycle)
	if !d.Spinning(0) {
		t.Fatal("warp with repeating path+values must be classified spinning")
	}
	if !d.IsSIB(24) {
		t.Fatal("branch must be confirmed after threshold bumps")
	}
	m := d.Metrics()
	if m.TrueSeen != 1 || m.TrueDetected != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestDDOSIgnoresChangingValues(t *testing.T) {
	// A counted loop: the induction operand changes every iteration.
	d := NewDDOS(ddosCfg(), 4)
	var cycle int64
	for i := 0; i < 50; i++ {
		d.OnSetp(0, 58, 0, uint32(i), 100) // i vs limit
		d.OnBranch(0, 60, false, cycle)
		cycle += 50
	}
	if d.Spinning(0) {
		t.Fatal("counted loop misclassified as spinning")
	}
	if d.IsSIB(60) {
		t.Fatal("counted loop branch must not be confirmed")
	}
	m := d.Metrics()
	if m.FalseSeen != 1 || m.FalseDetected != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestDDOSModuloMissesHighBits(t *testing.T) {
	// MS/HL shape (Fig. 14): induction increments of 4096 are invisible
	// to 8-bit MODULO hashing but visible to XOR.
	for _, tc := range []struct {
		hash config.HashKind
		want bool // spinning misclassification expected?
	}{
		{config.HashModulo, true},
		{config.HashXOR, false},
	} {
		cfg := ddosCfg()
		cfg.Hash = tc.hash
		d := NewDDOS(cfg, 4)
		var cycle int64
		for i := 0; i < 20; i++ {
			d.OnSetp(0, 7, 0, uint32(i*4096), 32768)
			d.OnBranch(0, 9, false, cycle)
			cycle += 50
		}
		if got := d.Spinning(0); got != tc.want {
			t.Errorf("%s hashing: spinning = %v, want %v", tc.hash, got, tc.want)
		}
	}
}

func TestDDOSSpinningClearsOnValueChange(t *testing.T) {
	d := NewDDOS(ddosCfg(), 4)
	var cycle int64
	feedSpin(d, 0, 8, &cycle)
	if !d.Spinning(0) {
		t.Fatal("precondition: spinning")
	}
	// Lock acquired: CAS now returns 0 — value history mismatch.
	d.OnSetp(0, 15, 0, 0, 0)
	if d.Spinning(0) {
		t.Fatal("spinning state must clear on value mismatch (Figure 7b step 5)")
	}
}

func TestDDOSProfiledLaneChangeResetsHistory(t *testing.T) {
	d := NewDDOS(ddosCfg(), 4)
	var cycle int64
	// Alternate profiled lanes with identical values: must never be
	// classified spinning because no single thread repeats.
	for i := 0; i < 20; i++ {
		d.OnSetp(0, 15, i%2, 1, 0)
		d.OnSetp(0, 23, i%2, 0, 0)
		d.OnBranch(0, 24, true, cycle)
		cycle += 100
	}
	if d.Spinning(0) {
		t.Fatal("alternating profiled lanes must not chain into spin detection")
	}
}

func TestDDOSConfidenceDecay(t *testing.T) {
	cfg := ddosCfg()
	cfg.ConfidenceThreshold = 8
	d := NewDDOS(cfg, 4)
	var cycle int64
	// Two spinning bumps...
	feedSpin(d, 0, 6, &cycle) // history warm-up + bumps
	pre := d.entries[24]
	if pre == nil || pre.Confirmed() {
		t.Fatalf("branch should be tracked but not yet confirmed (conf=%v)", pre)
	}
	conf := pre.Confidence()
	// ...then a non-spinning warp takes the branch: confidence decays.
	d.OnBranch(1, 24, true, cycle)
	if got := d.entries[24].Confidence(); got != conf-1 {
		t.Fatalf("confidence = %d, want %d", got, conf-1)
	}
}

func TestDDOSConfirmationThreshold(t *testing.T) {
	for _, thr := range []int{2, 4, 8} {
		cfg := ddosCfg()
		cfg.ConfidenceThreshold = thr
		d := NewDDOS(cfg, 1)
		var cycle int64
		bumps := 0
		for i := 0; i < 40 && !d.IsSIB(24); i++ {
			d.OnSetp(0, 15, 0, 1, 0)
			d.OnSetp(0, 23, 0, 0, 0)
			if d.Spinning(0) {
				bumps++
			}
			d.OnBranch(0, 24, true, cycle)
			cycle += 100
		}
		if !d.IsSIB(24) {
			t.Fatalf("t=%d: never confirmed", thr)
		}
		if bumps != thr {
			t.Errorf("t=%d: confirmed after %d spinning bumps", thr, bumps)
		}
	}
}

func TestDDOSHistoryLengthLimits(t *testing.T) {
	// A loop whose period exceeds the history length cannot be detected.
	cfg := ddosCfg()
	cfg.HistoryLen = 4
	d := NewDDOS(cfg, 1)
	var cycle int64
	for i := 0; i < 30; i++ {
		// 6 setp records per iteration > l=4.
		for pc := int32(0); pc < 6; pc++ {
			d.OnSetp(0, 10+pc, 0, 1, 0)
		}
		d.OnBranch(0, 20, true, cycle)
		cycle += 100
	}
	if d.Spinning(0) {
		t.Fatal("period longer than history must not be detected")
	}
}

func TestDDOSTimeSharing(t *testing.T) {
	cfg := ddosCfg()
	cfg.TimeShare = true
	cfg.TimeShareEpoch = 100
	d := NewDDOS(cfg, 4)
	var cycle int64
	// Slot 0 owns the registers initially.
	feedSpin(d, 0, 8, &cycle)
	if !d.Spinning(0) {
		t.Fatal("owner slot should be tracked")
	}
	// Non-owner slots are invisible.
	d.OnSetp(1, 15, 0, 1, 0)
	if d.Spinning(1) {
		t.Fatal("non-owner slot must not be tracked")
	}
	// After the epoch advances, ownership rotates and history resets.
	d.Tick(cycle + 200)
	if d.Spinning(0) {
		t.Fatal("history must reset on epoch rotation")
	}
}

func TestHashToXORFolds(t *testing.T) {
	if hashTo(config.HashXOR, 0x12345678, 8) != uint16(0x12^0x34^0x56^0x78) {
		t.Fatal("XOR fold wrong")
	}
	if hashTo(config.HashModulo, 0x12345678, 8) != 0x78 {
		t.Fatal("MODULO wrong")
	}
	if hashTo(config.HashModulo, 0x1234, 4) != 4 {
		t.Fatal("MODULO 4-bit wrong")
	}
}

func TestHashToBounded(t *testing.T) {
	f := func(v uint32) bool {
		for _, bits := range []int{2, 3, 4, 8} {
			if int(hashTo(config.HashXOR, v, bits)) >= 1<<bits {
				return false
			}
			if int(hashTo(config.HashModulo, v, bits)) >= 1<<bits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSIBPTEviction(t *testing.T) {
	pt := NewSIBPT(2, 100) // tiny table, unreachable threshold
	pt.Bump(1, 0)
	pt.Bump(2, 0)
	pt.Bump(2, 0)
	pt.Bump(3, 0) // must evict PC 1 (lowest confidence)
	if pt.entries[1] != nil {
		t.Fatal("lowest-confidence entry should have been evicted")
	}
	if pt.entries[3] == nil || pt.entries[2] == nil {
		t.Fatal("wrong eviction victim")
	}
	if pt.evictions != 1 {
		t.Fatalf("evictions = %d", pt.evictions)
	}
}

func TestSIBPTConfirmedSticky(t *testing.T) {
	pt := NewSIBPT(4, 2)
	pt.Bump(7, 0)
	pt.Bump(7, 1)
	if !pt.IsSIB(7) {
		t.Fatal("should confirm at threshold")
	}
	for i := 0; i < 10; i++ {
		pt.Decay(7)
	}
	if !pt.IsSIB(7) {
		t.Fatal("confirmation must be sticky")
	}
	if got := pt.entries[7].Confidence(); got != 0 {
		t.Fatalf("confidence should decay to 0, got %d", got)
	}
	pcs := pt.ConfirmedPCs()
	if len(pcs) != 1 || pcs[0] != 7 {
		t.Fatalf("ConfirmedPCs = %v", pcs)
	}
}

// TestSIBPTConfirmedPCsSorted confirms PCs inserted out of order in
// fresh tables: map iteration order must never leak into the list.
func TestSIBPTConfirmedPCsSorted(t *testing.T) {
	pcs := []int32{40, 8, 96, 24, 72, 16, 88, 56}
	for i := 0; i < 20; i++ {
		pt := NewSIBPT(16, 1)
		for _, pc := range pcs {
			pt.Bump(pc, int64(i))
		}
		if got := pt.ConfirmedPCs(); len(got) != len(pcs) || !slices.IsSorted(got) {
			t.Fatalf("table %d: ConfirmedPCs = %v, want all %d PCs ascending", i, got, len(pcs))
		}
	}
}

func TestDetectionMetricsMath(t *testing.T) {
	var m DetectionMetrics
	m.Add(DetectionMetrics{TrueSeen: 2, TrueDetected: 1, FalseSeen: 4, FalseDetected: 1,
		TrueDPRSum: 0.5, FalseDPRSum: 0.2})
	m.Add(DetectionMetrics{TrueSeen: 2, TrueDetected: 2, TrueDPRSum: 0.1})
	if m.TSDR() != 0.75 {
		t.Fatalf("TSDR = %f", m.TSDR())
	}
	if m.FSDR() != 0.25 {
		t.Fatalf("FSDR = %f", m.FSDR())
	}
	if d := m.TrueDPR() - 0.2; d > 1e-9 || d < -1e-9 {
		t.Fatalf("TrueDPR = %f", m.TrueDPR())
	}
	var zero DetectionMetrics
	if zero.TSDR() != 0 || zero.FSDR() != 0 || zero.TrueDPR() != 0 || zero.FalseDPR() != 0 {
		t.Fatal("zero metrics must not divide by zero")
	}
}

package sched

import (
	"fmt"
	"strings"
	"testing"

	"warpsched/internal/config"
)

func readySet(slots ...int) uint64 {
	var set uint64
	for _, s := range slots {
		set |= 1 << uint(s)
	}
	return set
}

func TestNewUnknownKind(t *testing.T) {
	_, err := New("BOGUS", []int{0}, nil, Params{})
	if err == nil {
		t.Fatal("unknown scheduler kind must error")
	}
	// The message must enumerate the valid kinds so CLIs can surface it
	// as a usage error.
	for _, kind := range config.AllSchedulers {
		if !strings.Contains(err.Error(), string(kind)) {
			t.Errorf("error %q does not mention valid kind %q", err, kind)
		}
	}
}

// TestNewRejectsBadSlotLists: the mask forms need a unit's slots to be one
// non-empty ascending run of consecutive indexes inside 0..63, and New says
// so instead of building a policy that scans the wrong warps.
func TestNewRejectsBadSlotLists(t *testing.T) {
	bad := map[string][]int{
		"empty":            {},
		"gap":              {0, 1, 3},
		"descending":       {3, 2, 1},
		"duplicate":        {4, 4, 5},
		"reaching slot 64": {62, 63, 64},
		"negative":         {-1, 0},
	}
	for name, slots := range bad {
		for _, kind := range config.AllSchedulers {
			_, err := New(kind, slots, make([]WarpMetrics, 65), Params{GTORotatePeriod: 100, WaSP: config.DefaultWaSP()})
			if err == nil {
				t.Errorf("%s %s: New accepted slots %v", kind, name, slots)
			} else if !strings.Contains(err.Error(), fmt.Sprint(slots)) {
				t.Errorf("%s %s: error %q does not name the list %v", kind, name, err, slots)
			}
		}
	}
	for _, slots := range [][]int{{0}, {63}, {40, 41, 42}} {
		p, err := New(config.LRR, slots, nil, Params{})
		if err != nil {
			t.Errorf("New rejected the good list %v: %v", slots, err)
		} else if p.Slots() != readySet(slots...) {
			t.Errorf("Slots() = %#x for %v", p.Slots(), slots)
		}
	}
}

func TestLRRRotation(t *testing.T) {
	l := NewLRR([]int{0, 1, 2, 3})
	if got := l.PickMask(0, readySet(0, 1, 2, 3)); got != 0 {
		t.Fatalf("first pick = %d, want 0", got)
	}
	l.OnIssue(0, 0)
	if got := l.PickMask(1, readySet(0, 1, 2, 3)); got != 1 {
		t.Fatalf("after issuing 0, pick = %d, want 1", got)
	}
	l.OnIssue(1, 1)
	// Slot 2 not ready: skip to 3.
	if got := l.PickMask(2, readySet(0, 1, 3)); got != 3 {
		t.Fatalf("pick = %d, want 3", got)
	}
	l.OnIssue(3, 2)
	if got := l.PickMask(3, readySet(0)); got != 0 {
		t.Fatalf("wraparound pick = %d, want 0", got)
	}
	if got := l.PickMask(4, readySet()); got != -1 {
		t.Fatalf("no ready warps should give -1, got %d", got)
	}
}

func TestGTOGreedyThenOldest(t *testing.T) {
	g := NewGTO([]int{0, 1, 2, 3}, 0)
	if got := g.PickMask(0, readySet(1, 2)); got != 1 {
		t.Fatalf("oldest ready = %d, want 1", got)
	}
	g.OnIssue(2, 0)
	// Greedy: last issued (2) preferred while ready, even over older 1.
	if got := g.PickMask(1, readySet(1, 2)); got != 2 {
		t.Fatalf("greedy pick = %d, want 2", got)
	}
	// When 2 stalls, fall back to the oldest ready.
	if got := g.PickMask(2, readySet(1, 3)); got != 1 {
		t.Fatalf("fallback pick = %d, want 1", got)
	}
}

func TestGTOAgeRotation(t *testing.T) {
	g := NewGTO([]int{0, 1, 2, 3}, 100)
	// In the second rotation period the age order starts from slot 1.
	if got := g.PickMask(150, readySet(0, 1, 2, 3)); got != 1 {
		t.Fatalf("rotated oldest = %d, want 1", got)
	}
	if got := g.PickMask(250, readySet(0, 1, 2, 3)); got != 2 {
		t.Fatalf("rotated oldest = %d, want 2", got)
	}
	// Rotation wraps around the slot count.
	if got := g.PickMask(450, readySet(0, 1, 2, 3)); got != 0 {
		t.Fatalf("wrapped rotation = %d, want 0", got)
	}
}

func TestCAWAPrioritizesCriticalWarp(t *testing.T) {
	metrics := make([]WarpMetrics, 4)
	c := NewCAWA([]int{0, 1, 2, 3}, metrics)
	// Slot 2: many stalls and high CPI — most critical.
	metrics[2] = WarpMetrics{Issued: 10, ResidentCycles: 1000, StallCycles: 900, EstRemaining: 50}
	metrics[1] = WarpMetrics{Issued: 100, ResidentCycles: 200, StallCycles: 50, EstRemaining: 10}
	if got := c.PickMask(0, readySet(1, 2)); got != 2 {
		t.Fatalf("CAWA pick = %d, want critical slot 2", got)
	}
	// If 2 is not ready, take the next most critical.
	if got := c.PickMask(0, readySet(1, 3)); got != 1 {
		t.Fatalf("CAWA pick = %d, want 1", got)
	}
}

func TestCAWABranchGrowsEstimate(t *testing.T) {
	metrics := make([]WarpMetrics, 2)
	c := NewCAWA([]int{0, 1}, metrics)
	before := metrics[0].EstRemaining
	c.OnBranch(0, true)
	if metrics[0].EstRemaining != before+LoopEstimate {
		t.Fatalf("taken backward branch must add %d to nInst", LoopEstimate)
	}
	c.OnBranch(0, false)
	if metrics[0].EstRemaining != before+LoopEstimate {
		t.Fatal("forward/not-taken branch must not change nInst")
	}
	c.OnIssue(0, 0)
	if metrics[0].EstRemaining != before+LoopEstimate-1 {
		t.Fatal("issue must decrement nInst")
	}
}

func TestCAWASpinningWarpStaysCritical(t *testing.T) {
	// The paper's observation: a spinning warp keeps taking backward
	// branches and stalling, so CAWA keeps prioritizing it.
	metrics := make([]WarpMetrics, 2)
	c := NewCAWA([]int{0, 1}, metrics)
	metrics[0].Resident = true
	metrics[1].Resident = true
	for i := 0; i < 100; i++ {
		// Slot 0 spins: issues, stalls, takes backward branches.
		c.OnIssue(0, int64(i))
		metrics[0].Issued++
		metrics[0].ResidentCycles += 10
		metrics[0].StallCycles += 9
		c.OnBranch(0, true)
		// Slot 1 progresses: issues frequently, no backward branches.
		metrics[1].Issued += 5
		metrics[1].ResidentCycles += 10
		metrics[1].StallCycles++
	}
	if c.Criticality(0) <= c.Criticality(1) {
		t.Fatalf("spinning warp criticality %.0f should exceed progressing warp %.0f",
			c.Criticality(0), c.Criticality(1))
	}
}

func TestCPIAvgZeroIssued(t *testing.T) {
	m := WarpMetrics{}
	if m.CPIAvg() != 1 {
		t.Fatal("CPI of a warp with no instructions should default to 1")
	}
}

func TestPolicyNames(t *testing.T) {
	metrics := make([]WarpMetrics, 1)
	params := Params{GTORotatePeriod: 100, WaSP: config.DefaultWaSP()}
	for _, kind := range config.AllSchedulers {
		p, err := New(kind, []int{0}, metrics, params)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != string(kind) {
			t.Errorf("policy name %q != kind %q", p.Name(), kind)
		}
	}
}

func TestWaSPPriorityGroupFirst(t *testing.T) {
	// Group of 2 starting at slot 0 in phase 0: trailing warps issue
	// only when the whole group is stalled.
	w := NewWaSP([]int{0, 1, 2, 3}, config.WaSP{GroupSize: 2, RotatePeriod: 100})
	if got := w.PickMask(0, readySet(0, 1, 2, 3)); got != 0 {
		t.Fatalf("pick = %d, want priority slot 0", got)
	}
	if got := w.PickMask(0, readySet(1, 2, 3)); got != 1 {
		t.Fatalf("pick = %d, want priority slot 1", got)
	}
	if got := w.PickMask(0, readySet(2, 3)); got != 2 {
		t.Fatalf("pick = %d, want trailing slot 2", got)
	}
	if got := w.PickMask(0, readySet()); got != -1 {
		t.Fatalf("no ready warps should give -1, got %d", got)
	}
}

func TestWaSPGreedyWithinGroup(t *testing.T) {
	w := NewWaSP([]int{0, 1, 2, 3}, config.WaSP{GroupSize: 2, RotatePeriod: 100})
	w.OnIssue(1, 0)
	// Greedy: last issued (1) preferred while it stays in the group,
	// even over the lower-index group member 0.
	if got := w.PickMask(1, readySet(0, 1)); got != 1 {
		t.Fatalf("greedy pick = %d, want 1", got)
	}
	// A trailing last-issued warp gets no greedy preference: slot 3
	// issued last but slot 0 leads the group.
	w.OnIssue(3, 2)
	if got := w.PickMask(3, readySet(0, 3)); got != 0 {
		t.Fatalf("pick = %d, want priority slot 0 over trailing last 3", got)
	}
}

func TestWaSPRotation(t *testing.T) {
	// The window advances by GroupSize slots each period: phase 1 leads
	// with slot 2, phase 2 wraps back to slot 0.
	cases := []struct {
		cycle int64
		ready []int
		want  int
	}{
		{cycle: 0, ready: []int{0, 1, 2, 3}, want: 0},
		{cycle: 100, ready: []int{0, 1, 2, 3}, want: 2},
		{cycle: 150, ready: []int{0, 1, 2}, want: 2},
		{cycle: 150, ready: []int{0, 1}, want: 0}, // trailing order follows the window
		{cycle: 200, ready: []int{0, 1, 2, 3}, want: 0},
		{cycle: 300, ready: []int{1, 3}, want: 3},
	}
	for _, tc := range cases {
		w := NewWaSP([]int{0, 1, 2, 3}, config.WaSP{GroupSize: 2, RotatePeriod: 100})
		if got := w.PickMask(tc.cycle, readySet(tc.ready...)); got != tc.want {
			t.Errorf("cycle %d ready %v: pick = %d, want %d", tc.cycle, tc.ready, got, tc.want)
		}
	}
}

func TestWaSPGroupClampedToUnit(t *testing.T) {
	// A unit narrower than the group knob degenerates to greedy over
	// all slots, never an out-of-range scan.
	w := NewWaSP([]int{4, 5}, config.WaSP{GroupSize: 8, RotatePeriod: 50})
	if got := w.PickMask(0, readySet(4, 5)); got != 4 {
		t.Fatalf("pick = %d, want 4", got)
	}
	w.OnIssue(5, 0)
	if got := w.PickMask(1, readySet(4, 5)); got != 5 {
		t.Fatalf("greedy pick = %d, want 5", got)
	}
	// Rotation stays stable when the group covers the whole unit.
	if got := w.PickMask(500, readySet(4)); got != 4 {
		t.Fatalf("pick = %d, want 4", got)
	}
}

func TestWaSPPickCounters(t *testing.T) {
	w := NewWaSP([]int{0, 1, 2, 3}, config.WaSP{GroupSize: 2, RotatePeriod: 100})
	w.PickMask(0, readySet(0, 1, 2, 3)) // priority
	w.PickMask(0, readySet(3))          // trailing
	if w.priorityPicks != 1 || w.trailingPicks != 1 {
		t.Fatalf("picks = %d/%d, want 1 priority and 1 trailing",
			w.priorityPicks, w.trailingPicks)
	}
}

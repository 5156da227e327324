package metrics

import (
	"reflect"
	"testing"
)

// TestRegistryViews registers each instrument kind and reads it back
// through a snapshot: an Int64 view reports its field's value at
// snapshot time, not at registration.
func TestRegistryViews(t *testing.T) {
	r := NewRegistry()
	var issues, hits int64
	r.Int64("sm0.sched.issue_cycles", &issues)
	r.Int64("sm0.mem.l1_hits", &hits)
	r.Gauge("sm0.mem.l1_hit_rate", func() float64 { return 0.5 })
	issues, hits = 42, 7
	s := r.Snapshot()
	wantCounters := map[string]int64{"sm0.sched.issue_cycles": 42, "sm0.mem.l1_hits": 7}
	if !reflect.DeepEqual(s.Counters, wantCounters) {
		t.Fatalf("Counters = %v, want %v", s.Counters, wantCounters)
	}
	if want := map[string]float64{"sm0.mem.l1_hit_rate": 0.5}; !reflect.DeepEqual(s.Gauges, want) {
		t.Fatalf("Gauges = %v, want %v", s.Gauges, want)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	for _, bad := range []string{"", ".", "a..b", ".a", "a.", "A.b", "a b", "sm0.Mem"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q: expected panic", bad)
				}
			}()
			var v int64
			NewRegistry().Int64(bad, &v)
		}()
	}
	// Duplicate registration panics too, whatever the kinds.
	r := NewRegistry()
	var v int64
	r.Int64("a.b", &v)
	defer func() {
		if recover() == nil {
			t.Error("duplicate name: expected panic")
		}
	}()
	r.Gauge("a.b", func() float64 { return 0 })
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	events := int64(3)
	r.Int64("x.events", &events)
	var num, den int64 = 1, 4
	r.Rate("x.ratio", &num, &den)
	h := r.Histogram("x.lat", []int64{10, 100})
	for _, v := range []int64{5, 50, 500, 7} {
		h.Observe(v)
	}
	s := r.Snapshot()
	wantCounters := map[string]int64{
		"x.events":     3,
		"x.lat.count":  4,
		"x.lat.sum":    562,
		"x.lat.min":    5,
		"x.lat.max":    500,
		"x.lat.le_10":  2,
		"x.lat.le_100": 1,
		"x.lat.le_inf": 1,
	}
	if !reflect.DeepEqual(s.Counters, wantCounters) {
		t.Errorf("Counters = %v, want %v", s.Counters, wantCounters)
	}
	if got := s.Gauges["x.ratio"]; got != 0.25 {
		t.Errorf("ratio gauge = %v, want 0.25", got)
	}
	// Rate with zero denominator reads 0, not NaN.
	den = 0
	if got := r.Snapshot().Gauges["x.ratio"]; got != 0 {
		t.Errorf("zero-denominator rate = %v, want 0", got)
	}
}

// TestCounterHotPathZeroAlloc pins the observability layer's core
// promise: incrementing instruments on the issue path allocates nothing.
func TestCounterHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	var view int64
	r.Int64("hot.view", &view)
	h := r.Histogram("hot.hist", []int64{8, 64, 512})
	if n := testing.AllocsPerRun(1000, func() {
		view++
		h.Observe(42)
	}); n != 0 {
		t.Errorf("hot path allocated %v times per run, want 0", n)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100, 1000})

	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	for _, v := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 500} {
		h.Observe(v)
	}
	// 9 of 10 observations fall in the ≤10 bucket, one in ≤1000.
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("p50 = %d, want 10", got)
	}
	if got := h.Quantile(0.99); got != 1000 {
		t.Errorf("p99 = %d, want 1000", got)
	}
	if got := h.Quantile(1.0); got != 1000 {
		t.Errorf("p100 = %d, want 1000", got)
	}

	// Past the last bound, the estimate falls back to the observed max.
	h.Observe(50_000)
	if got := h.Quantile(1.0); got != 50_000 {
		t.Errorf("overflow quantile = %d, want observed max 50000", got)
	}
}

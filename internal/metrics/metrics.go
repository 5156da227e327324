// Package metrics is the simulator's structured observability layer: a
// registry of typed instruments (counters, gauges, histograms) with
// hierarchical dotted names such as sm3.sched.issue_cycles, plus the
// machine-readable run manifest (manifest.go) that cmd/warpsim and
// cmd/experiments emit via -stats-json.
//
// The design constraint is near-zero hot-path cost: an instrument is a
// plain int64 field of the owning subsystem, which increments it
// directly; Int64 registers the field as a counter view. Name
// resolution, maps and allocation happen only at registration and
// snapshot time, never on the per-cycle issue path.
// Registries are not safe for concurrent use; one registry belongs to
// one engine, mirroring sim.Engine's own concurrency contract.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Histogram counts int64 observations into buckets with fixed upper
// bounds, tracking count, sum, min and max. It is intended for off-hot-
// path sampling (controller windows, queue occupancy), not per-cycle use.
type Histogram struct {
	bounds []int64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []int64 // len(bounds)+1
	count  int64
	sum    int64
	min    int64
	max    int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if h.count == 1 || v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Quantile returns a bucketed upper-bound estimate of the q-quantile
// (0 ≤ q ≤ 1): the smallest bucket bound at or below which at least
// q·count observations fall. Observations past the last bound report
// the observed max (the histogram has no tighter bound there). Zero
// observations report 0. The estimate's resolution is the bucket
// layout — internal/server sizes latency buckets logarithmically so
// p50/p99 stay within a factor of ~2.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(q*float64(h.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range h.counts {
		cum += n
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum }

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

type entry struct {
	name  string
	kind  kind
	value *int64 // counter view
	gauge func() float64
	hist  *Histogram
}

// Registry holds named instruments for one engine. Registration panics on
// an invalid or duplicate name: both are programming errors in the
// instrumented subsystem, not run-time conditions.
type Registry struct {
	names map[string]struct{}
	ents  []entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

// validName reports whether name is a nonempty dotted path of
// [a-z0-9_] segments, e.g. "sm0.mem.l1_hits".
func validName(name string) bool {
	if name == "" || name[0] == '.' || name[len(name)-1] == '.' {
		return false
	}
	prevDot := false
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '.':
			if prevDot {
				return false
			}
			prevDot = true
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			prevDot = false
		default:
			return false
		}
	}
	return true
}

func (r *Registry) add(e entry) {
	if !validName(e.name) {
		panic(fmt.Sprintf("metrics: invalid instrument name %q", e.name))
	}
	if _, dup := r.names[e.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate instrument name %q", e.name))
	}
	r.names[e.name] = struct{}{}
	r.ents = append(r.ents, e)
}

// Int64 registers an existing int64 field as a counter view: the owner
// keeps incrementing its field directly and the registry reads it at
// snapshot time. This is how pre-existing hot-path counters (stats.Sim
// and friends) join the registry without any hot-path change.
func (r *Registry) Int64(name string, v *int64) {
	if v == nil {
		panic(fmt.Sprintf("metrics: nil value for %q", name))
	}
	r.add(entry{name: name, kind: kindCounter, value: v})
}

// Gauge registers a derived value (a rate, ratio, or current level)
// evaluated lazily at snapshot time.
func (r *Registry) Gauge(name string, fn func() float64) {
	if fn == nil {
		panic(fmt.Sprintf("metrics: nil gauge func for %q", name))
	}
	r.add(entry{name: name, kind: kindGauge, gauge: fn})
}

// Rate registers a gauge computing *num ÷ *den (0 when *den is 0).
func (r *Registry) Rate(name string, num, den *int64) {
	if num == nil || den == nil {
		panic(fmt.Sprintf("metrics: nil operand for rate %q", name))
	}
	r.Gauge(name, func() float64 {
		if *den == 0 {
			return 0
		}
		return float64(*num) / float64(*den)
	})
}

// Histogram registers and returns a histogram with the given ascending
// upper bucket bounds (an implicit +Inf bucket is appended).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{bounds: append([]int64(nil), bounds...), counts: make([]int64, len(bounds)+1)}
	r.add(entry{name: name, kind: kindHistogram, hist: h})
	return h
}

// Snapshot is a point-in-time dump of a registry: exact integer counters
// (compared exactly by the golden harness) and derived float gauges
// (compared within tolerance). Histograms flatten into the counter map as
// name.count, name.sum, name.min, name.max and per-bucket name.le_<bound>
// / name.le_inf entries.
type Snapshot struct {
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// Snapshot reads every instrument. Gauges returning NaN or ±Inf are
// recorded as 0 so snapshots always marshal to valid JSON.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Counters: make(map[string]int64, len(r.ents))}
	for _, e := range r.ents {
		switch e.kind {
		case kindCounter:
			s.Counters[e.name] = *e.value
		case kindGauge:
			v := e.gauge()
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			if s.Gauges == nil {
				s.Gauges = make(map[string]float64)
			}
			s.Gauges[e.name] = v
		case kindHistogram:
			h := e.hist
			s.Counters[e.name+".count"] = h.count
			s.Counters[e.name+".sum"] = h.sum
			s.Counters[e.name+".min"] = h.min
			s.Counters[e.name+".max"] = h.max
			for i, b := range h.bounds {
				s.Counters[e.name+".le_"+strconv.FormatInt(b, 10)] = h.counts[i]
			}
			s.Counters[e.name+".le_inf"] = h.counts[len(h.bounds)]
		}
	}
	return s
}

package core

import (
	"sort"

	"warpsched/internal/metrics"
)

// Detector is the spin-detection contract BOWS and the engine consume.
// DDOS (the paper's hash-based history detector) and TAGE (the
// tagged-geometric path-history predictor) both implement it; the
// engine instantiates one per SM from config.DetectorKind, so every
// scheduling experiment can run atop either mechanism.
//
// The methods split into three groups. Event inputs: OnSetp feeds
// condition-evaluation operands and OnBranch feeds taken backward
// branches (the only events spin detection needs). Classification
// outputs: Spinning is the per-warp state BOWS consults on every issue,
// IsSIB the sticky per-PC confirmation that arms back-off. Clocking and
// observability: Tick/NextEpochBoundary integrate with the engine's
// event-driven fast-forward (a detector whose Tick is a no-op must
// return math.MaxInt64 so skipped cycles are provably unobservable),
// and the remaining methods expose the confirmation table to metrics,
// hang reports and the manifest pipeline.
type Detector interface {
	// Tick advances any cycle-driven internal state (e.g. DDOS
	// time-sharing epochs). Detectors with no such state make it a
	// no-op.
	Tick(cycle int64)
	// NextEpochBoundary returns the next cycle at which Tick has an
	// observable effect, or math.MaxInt64 if it never does; the
	// engine's fast-forward clock never skips past this boundary.
	NextEpochBoundary() int64
	// OnSetp records one condition evaluation by the warp in slot: pc
	// is the setp instruction address, lane the profiled (first
	// active) lane, and v1/v2 that lane's source operand values.
	OnSetp(slot int, pc int32, lane int, v1, v2 uint32)
	// OnBranch observes a taken backward branch at pc by the warp in
	// slot. isSIB is the ground-truth annotation, used only for
	// detection-quality metrics.
	OnBranch(slot int, pc int32, isSIB bool, cycle int64)
	// Spinning reports the detector's current spinning classification
	// for the warp in slot.
	Spinning(slot int) bool
	// IsSIB reports whether pc is a confirmed spin-inducing branch.
	IsSIB(pc int32) bool
	// Metrics computes the SM's detection-quality summary over all
	// backward branches observed so far.
	Metrics() DetectionMetrics
	// ConfirmedPCs returns every confirmed SIB PC (order unspecified).
	ConfirmedPCs() []int32
	// TableSnapshot returns a PC-sorted copy of the confirmation
	// table, for attaching to hang reports.
	TableSnapshot() []SIBView
	// RegisterMetrics registers the detector's observability surface
	// under prefix (e.g. "sm0.ddos.").
	RegisterMetrics(r *metrics.Registry, prefix string)
}

// detectionFrom computes detection-quality metrics from a branch
// tracking map and the confirmation table. PCs are walked in sorted
// order so the floating-point DPR sums are identical across runs
// regardless of map iteration order.
func detectionFrom(branches map[int32]*branchTrack, table *SIBPT) DetectionMetrics {
	pcs := make([]int32, 0, len(branches))
	for pc := range branches {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	var m DetectionMetrics
	for _, pc := range pcs {
		bt := branches[pc]
		e := table.entry(pc)
		confirmed := e != nil && e.confirmed
		var dpr float64
		if confirmed {
			span := bt.lastSeen - bt.firstSeen
			if span < 1 {
				span = 1
			}
			dpr = float64(e.confirmedAt-bt.firstSeen) / float64(span)
		}
		if bt.isSIB {
			m.TrueSeen++
			if confirmed {
				m.TrueDetected++
				m.TrueDPRSum += dpr
			}
		} else {
			m.FalseSeen++
			if confirmed {
				m.FalseDetected++
				m.FalseDPRSum += dpr
			}
		}
	}
	return m
}

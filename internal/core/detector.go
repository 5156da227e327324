package core

import "warpsched/internal/metrics"

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
// hang reports and the manifest pipeline. Both detectors embed one
// SIBPT, and IsSIB, Metrics, ConfirmedPCs and TableSnapshot are its
// methods.
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
	// ConfirmedPCs returns every confirmed SIB PC in ascending order.
	ConfirmedPCs() []int32
	// TableSnapshot returns a PC-sorted copy of the confirmation
	// table, for attaching to hang reports.
	TableSnapshot() []SIBView
	// RegisterMetrics registers the detector's observability surface
	// under prefix (e.g. "sm0.ddos.").
	RegisterMetrics(r *metrics.Registry, prefix string)
}

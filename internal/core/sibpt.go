package core

import (
	"cmp"
	"slices"

	"warpsched/internal/metrics"
)

// SIBEntry is one Spin-inducing Branch Prediction Table entry: the branch
// PC, its confidence counter and its prediction (paper Figure 7b).
// Confirmation is sticky: once a branch's confidence reaches the
// threshold it remains classified as a SIB, matching the paper's use of
// the table to drive BOWS for the remainder of the kernel.
type SIBEntry struct {
	PC          int32
	conf        int
	confirmed   bool
	confirmedAt int64
}

// Confidence returns the entry's current confidence value.
func (e *SIBEntry) Confidence() int { return e.conf }

// Confirmed reports whether the entry is a confirmed SIB.
func (e *SIBEntry) Confirmed() bool { return e.confirmed }

// branchTrack records encounter times of one backward branch for the
// detection-phase-ratio metric (Table I).
type branchTrack struct {
	firstSeen int64
	lastSeen  int64
	isSIB     bool // ground truth (AnnSIB, derived by isa.Builder.Build)
}

// SIBPT is the per-SM Spin-inducing Branch Prediction Table, shared
// between the warps executing on the SM. Both detectors embed one: it
// owns every piece of SIB confirmation state, so the detectors differ
// only in how they classify a warp as spinning.
type SIBPT struct {
	size      int
	threshold int
	entries   map[int32]*SIBEntry
	// branches tracks every taken backward branch observed, SIB-PT
	// entry or not, for the detection-quality metrics.
	branches map[int32]*branchTrack
	// evictions counts entries displaced because the table was full; a
	// nonzero value signals the 16-entry sizing was insufficient.
	evictions int64
	// promotions counts entries crossing the confidence threshold (the
	// SIB confirmations that arm BOWS); insertions counts new entries.
	promotions int64
	insertions int64
}

// NewSIBPT creates a table with the given capacity and confidence
// threshold t.
func NewSIBPT(size, threshold int) *SIBPT {
	return &SIBPT{size: size, threshold: threshold,
		entries: make(map[int32]*SIBEntry), branches: make(map[int32]*branchTrack)}
}

// onBranch observes a taken backward branch at pc: spinning warps build
// confidence, non-spinning warps decay it (aliasing guard), and a warp
// the detector did not observe (DDOS time sharing) does neither. isSIB
// is the ground-truth annotation, used only for metrics.
func (t *SIBPT) onBranch(pc int32, isSIB bool, cycle int64, observed, spinning bool) {
	bt := t.branches[pc]
	if bt == nil {
		bt = &branchTrack{firstSeen: cycle, isSIB: isSIB}
		t.branches[pc] = bt
	}
	bt.lastSeen = cycle
	switch {
	case !observed: // neither builds nor decays
	case spinning:
		t.Bump(pc, cycle)
	default:
		t.Decay(pc)
	}
}

// Bump records an execution of the backward branch at pc by a spinning
// warp: insert with confidence 1 or increment; confirm at the threshold.
func (t *SIBPT) Bump(pc int32, cycle int64) {
	e := t.entries[pc]
	if e == nil {
		if len(t.entries) >= t.size && !t.evictOne() {
			return // table full of confirmed entries; drop the newcomer
		}
		e = &SIBEntry{PC: pc}
		t.entries[pc] = e
		t.insertions++
	}
	e.conf++
	if !e.confirmed && e.conf >= t.threshold {
		e.confirmed = true
		e.confirmedAt = cycle
		t.promotions++
	}
}

// Decay records an execution of the backward branch at pc by a
// non-spinning warp, decrementing nonzero confidence (the paper's guard
// against accumulated hash-aliasing errors).
func (t *SIBPT) Decay(pc int32) {
	if e := t.entries[pc]; e != nil && e.conf > 0 {
		e.conf--
	}
}

// evictOne removes the lowest-confidence unconfirmed entry; it returns
// false if every entry is confirmed.
func (t *SIBPT) evictOne() bool {
	var victim *SIBEntry
	for _, e := range t.entries {
		if e.confirmed {
			continue
		}
		if victim == nil || e.conf < victim.conf ||
			(e.conf == victim.conf && e.PC < victim.PC) {
			victim = e
		}
	}
	if victim == nil {
		return false
	}
	delete(t.entries, victim.PC)
	t.evictions++
	return true
}

// IsSIB reports whether pc is a confirmed spin-inducing branch.
func (t *SIBPT) IsSIB(pc int32) bool {
	e := t.entries[pc]
	return e != nil && e.confirmed
}

// ConfirmedPCs returns every confirmed SIB PC in ascending order.
func (t *SIBPT) ConfirmedPCs() []int32 {
	var out []int32
	for pc, e := range t.entries {
		if e.confirmed {
			out = append(out, pc)
		}
	}
	slices.Sort(out)
	return out
}

// SIBView is one table entry's observable state (hang-report snapshots).
type SIBView struct {
	PC         int32
	Confidence int
	Confirmed  bool
}

// TableSnapshot returns a PC-sorted copy of the table's entries, for
// attaching to hang reports without exposing live state.
func (t *SIBPT) TableSnapshot() []SIBView {
	out := make([]SIBView, 0, len(t.entries))
	for pc, e := range t.entries {
		out = append(out, SIBView{PC: pc, Confidence: e.conf, Confirmed: e.confirmed})
	}
	slices.SortFunc(out, func(a, b SIBView) int { return cmp.Compare(a.PC, b.PC) })
	return out
}

// RegisterMetrics registers the table's counters under prefix+"sibpt."
// and its detection-quality gauges under prefix (e.g. "sm0.ddos."); it
// is DDOS's whole observability surface. The gauges are evaluated lazily
// at snapshot time: Metrics walks the branch map, so it must stay off
// the per-cycle path.
func (t *SIBPT) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.Int64(prefix+"sibpt.insertions", &t.insertions)
	r.Int64(prefix+"sibpt.promotions", &t.promotions)
	r.Int64(prefix+"sibpt.evictions", &t.evictions)
	r.Gauge(prefix+"sibpt.entries", func() float64 { return float64(len(t.entries)) })
	r.Gauge(prefix+"branches_tracked", func() float64 { return float64(len(t.branches)) })
	r.Gauge(prefix+"tsdr", func() float64 { m := t.Metrics(); return m.TSDR() })
	r.Gauge(prefix+"fsdr", func() float64 { m := t.Metrics(); return m.FSDR() })
}

// DetectionMetrics summarizes one SM's detection quality (Table I).
type DetectionMetrics struct {
	// TrueSeen/TrueDetected: ground-truth SIBs encountered / confirmed.
	TrueSeen     int
	TrueDetected int
	// FalseSeen/FalseDetected: non-SIB backward branches encountered /
	// wrongly confirmed.
	FalseSeen     int
	FalseDetected int
	// TrueDPRSum/FalseDPRSum accumulate detection phase ratios over the
	// detected branches of each class.
	TrueDPRSum  float64
	FalseDPRSum float64
}

// TSDR returns the true spin detection rate.
func (m *DetectionMetrics) TSDR() float64 {
	if m.TrueSeen == 0 {
		return 0
	}
	return float64(m.TrueDetected) / float64(m.TrueSeen)
}

// FSDR returns the false spin detection rate.
func (m *DetectionMetrics) FSDR() float64 {
	if m.FalseSeen == 0 {
		return 0
	}
	return float64(m.FalseDetected) / float64(m.FalseSeen)
}

// TrueDPR returns the mean detection phase ratio over detected true SIBs.
func (m *DetectionMetrics) TrueDPR() float64 {
	if m.TrueDetected == 0 {
		return 0
	}
	return m.TrueDPRSum / float64(m.TrueDetected)
}

// FalseDPR returns the mean detection phase ratio over false detections.
func (m *DetectionMetrics) FalseDPR() float64 {
	if m.FalseDetected == 0 {
		return 0
	}
	return m.FalseDPRSum / float64(m.FalseDetected)
}

// Add merges o into m (cross-SM aggregation).
func (m *DetectionMetrics) Add(o DetectionMetrics) {
	m.TrueSeen += o.TrueSeen
	m.TrueDetected += o.TrueDetected
	m.FalseSeen += o.FalseSeen
	m.FalseDetected += o.FalseDetected
	m.TrueDPRSum += o.TrueDPRSum
	m.FalseDPRSum += o.FalseDPRSum
}

// Metrics computes the SM's detection metrics over every backward
// branch it observed. PCs are walked in ascending order so the
// floating-point DPR sums are identical across runs regardless of map
// iteration order.
func (t *SIBPT) Metrics() DetectionMetrics {
	pcs := make([]int32, 0, len(t.branches))
	for pc := range t.branches {
		pcs = append(pcs, pc)
	}
	slices.Sort(pcs)
	var m DetectionMetrics
	for _, pc := range pcs {
		bt := t.branches[pc]
		confirmed := t.IsSIB(pc)
		var dpr float64
		if confirmed {
			span := bt.lastSeen - bt.firstSeen
			if span < 1 {
				span = 1
			}
			dpr = float64(t.entries[pc].confirmedAt-bt.firstSeen) / float64(span)
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

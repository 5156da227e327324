// Package core implements the paper's two contributions:
//
//   - DDOS (Dynamic Detection Of Spinning, §IV): per-warp path/value
//     history registers fed by setp executions, a match-pointer FSM that
//     classifies a warp as spinning when its recent control-flow path and
//     the source operands of its exit-condition computations repeat, and
//     a per-SM Spin-inducing Branch Prediction Table (SIB-PT) that
//     promotes backward branches executed by spinning warps to confirmed
//     spin-inducing branches (SIBs) through a confidence counter.
//
//   - BOWS (Back-Off Warp Spinning, §III): a wrapper over any baseline
//     warp scheduling policy that pushes a warp executing a SIB to the
//     back of the scheduling priority (the backed-off state) and enforces
//     a minimum back-off delay between consecutive spin iterations, with
//     the adaptive delay-limit controller of Figure 5.
//
// One DDOS and one BOWS instance exist per SM; BOWS additionally has a
// thin per-scheduler wrapper because warps are partitioned among
// scheduler units (Figure 8).
package core

import (
	"math"

	"warpsched/internal/config"
	"warpsched/internal/metrics"
)

// hashTo folds a 32-bit value to bits wide using the configured function.
func hashTo(kind config.HashKind, v uint32, bits int) uint16 {
	mask := uint32(1)<<bits - 1
	if kind == config.HashModulo {
		return uint16(v & mask)
	}
	// XOR folding over successive bit groups (paper §IV-B).
	var h uint32
	for {
		h ^= v & mask
		v >>= bits
		if v == 0 {
			break
		}
	}
	return uint16(h & mask)
}

// history is one warp's path/value history register pair plus the match
// FSM (Figure 7b). Entries are stored newest-first; index i holds the
// record inserted i+1 insertions ago after the current insertion shifts.
type history struct {
	path []uint16 // hashed setp PCs
	valA []uint16 // hashed first source operands
	valB []uint16 // hashed second source operands
	n    int      // valid entries (≤ l)

	mp        int  // match pointer
	fixed     bool // match pointer frozen (loop period candidate found)
	remaining int
	spinning  bool
	// lastLane identifies the profiled thread the history belongs to; a
	// change of profiled lane resets the FSM so values from different
	// threads are never chained into a false repetition (see the note in
	// DESIGN.md — with per-lane lock winners retiring in lane order, the
	// "first active thread" changes every iteration and its success
	// values would otherwise repeat).
	lastLane int
}

func (h *history) reset(l int) {
	if h.path == nil {
		h.path = make([]uint16, l)
		h.valA = make([]uint16, l)
		h.valB = make([]uint16, l)
	}
	h.n, h.mp, h.remaining = 0, 0, 0
	h.fixed, h.spinning = false, false
	h.lastLane = -1
}

// insert records one setp execution and updates the spinning state.
func (h *history) insert(l int, pe, va, vb uint16) {
	matchAt := func(i int) bool {
		return i < h.n && h.path[i] == pe && h.valA[i] == va && h.valB[i] == vb
	}
	if !h.fixed {
		if h.n > 0 {
			if matchAt(h.mp) {
				// Loop of period mp+1 setp records found: freeze the
				// pointer and demand mp more consecutive matches
				// (Figure 7b step 3: remaining = matchpointer − 1 after
				// the pointer advances past the matching entry).
				h.mp++
				h.fixed = true
				h.remaining = h.mp - 1
				if h.remaining <= 0 {
					h.remaining = 0
					h.spinning = true
				}
			} else {
				h.mp++
				if h.mp >= l {
					h.mp = 0
				}
			}
		}
	} else {
		if matchAt(h.mp - 1) {
			if h.remaining > 0 {
				h.remaining--
			}
			if h.remaining == 0 {
				h.spinning = true
			}
		} else {
			// Figure 7b step 5: any mismatch clears the spinning state
			// and restarts the search.
			h.mp = 0
			h.fixed = false
			h.remaining = 0
			h.spinning = false
		}
	}
	// Shift the new record in at index 0.
	copy(h.path[1:], h.path[:l-1])
	copy(h.valA[1:], h.valA[:l-1])
	copy(h.valB[1:], h.valB[:l-1])
	h.path[0], h.valA[0], h.valB[0] = pe, va, vb
	if h.n < l {
		h.n++
	}
}

// branchTrack records encounter times of one backward branch for the
// detection-phase-ratio metric (Table I).
type branchTrack struct {
	firstSeen int64
	lastSeen  int64
	isSIB     bool // ground truth (AnnSIB)
}

// DDOS is one SM's detector.
type DDOS struct {
	cfg   config.DDOS
	hists []history // per warp slot; single shared entry when TimeShare
	table *SIBPT

	// Time-sharing state: the slot currently owning the shared registers.
	owner      int
	numSlots   int
	epochStart int64

	branches map[int32]*branchTrack
}

// NewDDOS builds a detector for an SM with numSlots warp slots.
func NewDDOS(cfg config.DDOS, numSlots int) *DDOS {
	d := &DDOS{
		cfg:      cfg,
		table:    NewSIBPT(cfg.TableSize, cfg.ConfidenceThreshold),
		numSlots: numSlots,
		branches: make(map[int32]*branchTrack),
	}
	n := numSlots
	if cfg.TimeShare {
		n = 1
	}
	d.hists = make([]history, n)
	for i := range d.hists {
		d.hists[i].reset(cfg.HistoryLen)
	}
	return d
}

// RegisterMetrics registers the detector's observability surface under
// prefix (e.g. "sm0.ddos."): the SIB-PT counters plus detection-quality
// gauges evaluated lazily at snapshot time (Metrics walks the branch map,
// so it must stay off the per-cycle path).
func (d *DDOS) RegisterMetrics(r *metrics.Registry, prefix string) {
	d.table.RegisterMetrics(r, prefix+"sibpt.")
	r.Gauge(prefix+"branches_tracked", func() float64 { return float64(len(d.branches)) })
	r.Gauge(prefix+"tsdr", func() float64 { m := d.Metrics(); return m.TSDR() })
	r.Gauge(prefix+"fsdr", func() float64 { m := d.Metrics(); return m.FSDR() })
}

func (d *DDOS) hist(slot int) *history {
	if d.cfg.TimeShare {
		if slot != d.owner {
			return nil
		}
		return &d.hists[0]
	}
	return &d.hists[slot]
}

// Tick advances time-sharing epochs.
func (d *DDOS) Tick(cycle int64) {
	if !d.cfg.TimeShare {
		return
	}
	if cycle-d.epochStart >= d.cfg.TimeShareEpoch {
		d.epochStart = cycle
		d.owner = (d.owner + 1) % d.numSlots
		d.hists[0].reset(d.cfg.HistoryLen)
	}
}

// NextEpochBoundary returns the next cycle at which Tick rotates the
// time-shared history ownership, or math.MaxInt64 when time-sharing is
// off (Tick is then a no-op and the engine's event-driven clock may skip
// past it freely).
func (d *DDOS) NextEpochBoundary() int64 {
	if !d.cfg.TimeShare {
		return math.MaxInt64
	}
	return d.epochStart + d.cfg.TimeShareEpoch
}

// OnSetp records a setp execution: pc is the instruction address, lane
// the profiled (first active) lane, and v1/v2 that lane's source operand
// values.
func (d *DDOS) OnSetp(slot int, pc int32, lane int, v1, v2 uint32) {
	h := d.hist(slot)
	if h == nil {
		return
	}
	if lane != h.lastLane {
		l := d.cfg.HistoryLen
		h.reset(l)
		h.lastLane = lane
	}
	pe := hashTo(d.cfg.Hash, uint32(pc), d.cfg.PathBits)
	va := hashTo(d.cfg.Hash, v1, d.cfg.ValueBits)
	vb := hashTo(d.cfg.Hash, v2, d.cfg.ValueBits)
	h.insert(d.cfg.HistoryLen, pe, va, vb)
}

// Spinning reports the detector's current spinning classification for the
// warp in slot (false when the slot does not own history registers).
func (d *DDOS) Spinning(slot int) bool {
	h := d.hist(slot)
	return h != nil && h.spinning
}

// OnBranch observes a taken backward branch at pc executed by the warp in
// slot and updates the SIB-PT: spinning warps build confidence,
// non-spinning warps decay it (aliasing guard). isSIB is the ground-truth
// annotation, used only for metrics.
func (d *DDOS) OnBranch(slot int, pc int32, isSIB bool, cycle int64) {
	bt := d.branches[pc]
	if bt == nil {
		bt = &branchTrack{firstSeen: cycle, isSIB: isSIB}
		d.branches[pc] = bt
	}
	bt.lastSeen = cycle
	h := d.hist(slot)
	if h == nil {
		return // time sharing: unobserved warps neither build nor decay
	}
	if h.spinning {
		d.table.Bump(pc, cycle)
	} else {
		d.table.Decay(pc)
	}
}

// IsSIB reports whether pc is a confirmed spin-inducing branch.
func (d *DDOS) IsSIB(pc int32) bool { return d.table.Confirmed(pc) }

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

// Metrics computes the SM's detection metrics over all backward branches
// it observed.
func (d *DDOS) Metrics() DetectionMetrics {
	return detectionFrom(d.branches, d.table)
}

// ConfirmedPCs returns every confirmed SIB PC (order unspecified).
func (d *DDOS) ConfirmedPCs() []int32 { return d.table.ConfirmedPCs() }

// TableSnapshot returns a PC-sorted copy of the SIB-PT for hang
// reports.
func (d *DDOS) TableSnapshot() []SIBView { return d.table.Snapshot() }

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

// DDOS is one SM's detector.
type DDOS struct {
	*SIBPT
	cfg   config.DDOS
	hists []history // per warp slot; single shared entry when TimeShare

	// Time-sharing state: the slot currently owning the shared registers.
	owner      int
	numSlots   int
	epochStart int64
}

// NewDDOS builds a detector for an SM with numSlots warp slots.
func NewDDOS(cfg config.DDOS, numSlots int) *DDOS {
	d := &DDOS{
		SIBPT:    NewSIBPT(cfg.TableSize, cfg.ConfidenceThreshold),
		cfg:      cfg,
		numSlots: numSlots,
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
// slot and updates the SIB-PT. Under time sharing a slot that does not
// own the history registers is unobserved: it neither builds nor decays
// confidence.
func (d *DDOS) OnBranch(slot int, pc int32, isSIB bool, cycle int64) {
	h := d.hist(slot)
	d.onBranch(pc, isSIB, cycle, h != nil, h != nil && h.spinning)
}

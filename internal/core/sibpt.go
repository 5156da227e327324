package core

import (
	"sort"

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

// SIBPT is the per-SM Spin-inducing Branch Prediction Table, shared
// between the warps executing on the SM.
type SIBPT struct {
	size      int
	threshold int
	entries   map[int32]*SIBEntry
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
	return &SIBPT{size: size, threshold: threshold, entries: make(map[int32]*SIBEntry)}
}

func (t *SIBPT) entry(pc int32) *SIBEntry { return t.entries[pc] }

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

// Confirmed reports whether pc is a confirmed SIB.
func (t *SIBPT) Confirmed(pc int32) bool {
	e := t.entries[pc]
	return e != nil && e.confirmed
}

// ConfirmedPCs returns every confirmed SIB PC (order unspecified).
func (t *SIBPT) ConfirmedPCs() []int32 {
	var out []int32
	for pc, e := range t.entries {
		if e.confirmed {
			out = append(out, pc)
		}
	}
	return out
}

// SIBView is one table entry's observable state (hang-report snapshots).
type SIBView struct {
	PC         int32
	Confidence int
	Confirmed  bool
}

// Snapshot returns a PC-sorted copy of the table's entries, for
// attaching to diagnostic reports without exposing live state.
func (t *SIBPT) Snapshot() []SIBView {
	out := make([]SIBView, 0, len(t.entries))
	for pc, e := range t.entries {
		out = append(out, SIBView{PC: pc, Confidence: e.conf, Confirmed: e.confirmed})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}

// RegisterMetrics registers the table's counters under prefix (e.g.
// "sm0.ddos.sibpt.").
func (t *SIBPT) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.Int64(prefix+"insertions", &t.insertions)
	r.Int64(prefix+"promotions", &t.promotions)
	r.Int64(prefix+"evictions", &t.evictions)
	r.Gauge(prefix+"entries", func() float64 { return float64(len(t.entries)) })
}

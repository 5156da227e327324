package core

import (
	"math"

	"warpsched/internal/config"
	"warpsched/internal/metrics"
)

// tageSIBPTSize sizes the TAGE confirmation table; it matches the
// paper's conservative 16-entry SIB-PT so DDOS and TAGE-SIB rows of the
// sensitivity table differ only in their detection front-end.
const tageSIBPTSize = 16

// tageEntry is one tagged-table entry: a partial tag, a 3-bit spin
// confidence counter (predict spinning when >= 4) and a 2-bit useful
// counter governing allocation victims.
type tageEntry struct {
	valid  bool
	tag    uint16
	ctr    uint8
	useful uint8
}

// tageSlot is one warp slot's predictor-side state: the raw path
// history ring, the per-table folded histories kept from it, the
// last-seen operand signature per setp PC (the training oracle), and
// the latched spinning classification.
type tageSlot struct {
	ring []uint16 // hashed setp records, newest at head
	head int
	n    int
	// folds[2i] and folds[2i+1] are table i's history folded to IndexBits
	// and to TagBits bits (TAGESIB.folds), updated on every push.
	folds [2 * config.MaxTAGETables]uint32

	lastVal map[int32]uint64 // setp pc -> packed (v1, v2) of last execution
	streak  int              // consecutive operand-repeat observations
	spin    bool
	// lastLane mirrors DDOS: a change of profiled lane resets the slot
	// so values from different threads never chain into a false repeat.
	lastLane int
}

func (s *tageSlot) reset() {
	s.head, s.n, s.streak = 0, 0, 0
	clear(s.folds[:])
	s.spin = false
	s.lastLane = -1
	clear(s.lastVal)
}

// foldGeom is one folded history: the newest length records compressed
// into width bits by rotate-and-XOR, so record j (0 the newest) enters
// rotated left by rot·j. out is rot·(length−1) mod width, the rotation of
// the record about to leave the window.
type foldGeom struct {
	length, width int
	rot, out      int
	mask          uint32
}

func newFoldGeom(length, width int) foldGeom {
	rot := 3 % width
	return foldGeom{length: length, width: width, rot: rot,
		out: rot * (length - 1) % width, mask: uint32(1)<<width - 1}
}

// rotl rotates the width-bit value x left by k < width.
func (g *foldGeom) rotl(x uint32, k int) uint32 {
	if k == 0 {
		return x
	}
	return (x<<k | x>>(g.width-k)) & g.mask
}

// push shifts one record into s's history ring and brings every folded
// history up to date in O(1): each record already in the window turns by
// rot, the one leaving it (there is one once the ring holds length
// records) drops out, and rec enters unrotated.
func (t *TAGESIB) push(s *tageSlot, rec uint16) {
	for k := range t.folds {
		g := &t.folds[k]
		f := s.folds[k]
		if s.n >= g.length {
			out := uint32(s.ring[(s.head-(g.length-1)+len(s.ring))%len(s.ring)]) & g.mask
			f ^= g.rotl(out, g.out)
		}
		s.folds[k] = g.rotl(f, g.rot) ^ uint32(rec)&g.mask
	}
	s.head = (s.head + 1) % len(s.ring)
	s.ring[s.head] = rec
	if s.n < len(s.ring) {
		s.n++
	}
}

// TAGESIB is one SM's tagged-geometric-history spin predictor. It
// implements the same Detector contract as DDOS but replaces the
// history-register match FSM with a TAGE-style lookup: each warp keeps
// a global path history of its setp executions, and 3-4 tagged tables
// with geometrically-spaced history lengths learn which path contexts
// lead to spin iterations (an execution of a setp whose source operands
// are unchanged since its previous execution — the defining property of
// a spin-wait re-check). A warp is classified as spinning when the
// longest matching table predicts spin and the current observation
// confirms it, or — before the tables are trained — when it has
// observed ConfidenceThreshold consecutive operand repeats. Confirmed
// spin-inducing branches then accumulate in an embedded SIB-PT exactly
// as in DDOS, so BOWS consumes either detector unchanged.
//
// The predictor is event-count-driven: Tick is a no-op and
// NextEpochBoundary returns math.MaxInt64, so the engine's event-driven
// fast-forward stays cycle-exact atop it.
type TAGESIB struct {
	*SIBPT
	cfg config.TAGE
	// folds describes tageSlot.folds: table i's index fold, then its tag
	// fold; the history lengths grow with i.
	folds []foldGeom

	tables [][]tageEntry
	base   []uint8 // tagless bimodal base, 2-bit counters
	slots  []tageSlot

	// Observability counters.
	allocs       int64
	allocFails   int64
	usefulDecays int64
	predHits     int64
	predMisses   int64
	failStreak   int
}

var (
	_ Detector = (*DDOS)(nil)
	_ Detector = (*TAGESIB)(nil)
)

// NewTAGESIB builds a predictor for an SM with numSlots warp slots.
func NewTAGESIB(cfg config.TAGE, numSlots int) *TAGESIB {
	t := &TAGESIB{
		SIBPT: NewSIBPT(tageSIBPTSize, cfg.ConfidenceThreshold),
		cfg:   cfg,
		base:  make([]uint8, 1<<cfg.IndexBits),
	}
	h := cfg.BaseHist
	for i := 0; i < cfg.Tables; i++ {
		if h < i+1 {
			h = i + 1
		}
		t.folds = append(t.folds, newFoldGeom(h, cfg.IndexBits), newFoldGeom(h, cfg.TagBits))
		t.tables = append(t.tables, make([]tageEntry, 1<<cfg.IndexBits))
		h *= cfg.Ratio
	}
	maxHist := t.folds[len(t.folds)-1].length
	t.slots = make([]tageSlot, numSlots)
	for i := range t.slots {
		s := &t.slots[i]
		s.ring = make([]uint16, maxHist)
		s.lastVal = make(map[int32]uint64)
		s.reset()
	}
	return t
}

// index computes table i's index and partial tag for the warp in s
// executing the setp at pc, from the history preceding the current
// event.
func (t *TAGESIB) index(s *tageSlot, i int, pc int32) (uint32, uint16) {
	pcBits := uint32(pc) >> 2
	idxMask := uint32(1)<<t.cfg.IndexBits - 1
	tagMask := uint32(1)<<t.cfg.TagBits - 1
	idx := (s.folds[2*i] ^ pcBits ^ uint32(i)) & idxMask
	tag := (s.folds[2*i+1] ^ pcBits ^ (pcBits >> t.cfg.TagBits)) & tagMask
	return idx, uint16(tag)
}

// Tick is a no-op: the predictor advances on setp/branch events only.
func (t *TAGESIB) Tick(cycle int64) {}

// NextEpochBoundary returns math.MaxInt64: Tick never has an observable
// effect, so the engine's fast-forward clock may skip freely.
func (t *TAGESIB) NextEpochBoundary() int64 { return math.MaxInt64 }

// OnSetp records one condition evaluation: it derives the training bit
// (operands unchanged since this PC's previous execution by this warp),
// looks up the tagged tables on the pre-event path history, updates the
// provider and useful bits, allocates on misprediction, refreshes the
// warp's spinning classification, and finally pushes the event into the
// path history.
func (t *TAGESIB) OnSetp(slot int, pc int32, lane int, v1, v2 uint32) {
	s := &t.slots[slot]
	if lane != s.lastLane {
		s.reset()
		s.lastLane = lane
	}
	key := uint64(v1)<<32 | uint64(v2)
	prev, seen := s.lastVal[pc]
	repeat := seen && prev == key
	s.lastVal[pc] = key

	// Lookup: longest matching table provides the prediction, the next
	// match (or the base table) the alternate.
	baseIdx := (uint32(pc) >> 2) & (uint32(1)<<t.cfg.IndexBits - 1)
	basePred := t.base[baseIdx] >= 2
	pred, altPred := basePred, basePred
	provider, provIdx := -1, uint32(0)
	for i := t.cfg.Tables - 1; i >= 0; i-- {
		idx, tag := t.index(s, i, pc)
		e := &t.tables[i][idx]
		if !e.valid || e.tag != tag {
			continue
		}
		if provider < 0 {
			provider, provIdx = i, idx
			pred = e.ctr >= 4
			continue
		}
		altPred = e.ctr >= 4
		break
	}

	correct := pred == repeat
	if correct {
		t.predHits++
	} else {
		t.predMisses++
	}
	if provider >= 0 {
		e := &t.tables[provider][provIdx]
		if repeat {
			if e.ctr < 7 {
				e.ctr++
			}
		} else if e.ctr > 0 {
			e.ctr--
		}
		// The useful counter tracks whether the provider beats its
		// alternate, in the classic TAGE style.
		if pred != altPred {
			if correct && e.useful < 3 {
				e.useful++
			} else if !correct && e.useful > 0 {
				e.useful--
			}
		}
	} else {
		if repeat {
			if t.base[baseIdx] < 3 {
				t.base[baseIdx]++
			}
		} else if t.base[baseIdx] > 0 {
			t.base[baseIdx]--
		}
	}

	// Allocation: a misprediction tries to claim a not-useful entry in
	// one longer-history table; repeated failures age every useful bit
	// so stale entries eventually free up (graceful decay).
	if !correct && provider < t.cfg.Tables-1 {
		allocated := false
		for i := provider + 1; i < t.cfg.Tables; i++ {
			idx, tag := t.index(s, i, pc)
			e := &t.tables[i][idx]
			if e.valid && e.useful > 0 {
				continue
			}
			ctr := uint8(3)
			if repeat {
				ctr = 4
			}
			*e = tageEntry{valid: true, tag: tag, ctr: ctr}
			t.allocs++
			allocated = true
			break
		}
		if allocated {
			if t.failStreak > 0 {
				t.failStreak--
			}
		} else {
			t.allocFails++
			t.failStreak++
			if t.failStreak >= t.cfg.UsefulDecayPeriod {
				t.failStreak = 0
				t.usefulDecays++
				for i := range t.tables {
					for j := range t.tables[i] {
						if t.tables[i][j].useful > 0 {
							t.tables[i][j].useful--
						}
					}
				}
			}
		}
	}

	// Classification: a trained path signature confirmed by the current
	// observation, or a cold-start streak of operand repeats.
	if repeat {
		s.streak++
	} else {
		s.streak = 0
	}
	s.spin = (pred && repeat) || s.streak >= t.cfg.ConfidenceThreshold

	rec := uint16(uint32(pc)>>2) << 1
	if repeat {
		rec |= 1
	}
	t.push(s, rec)
}

// Spinning reports the predictor's current classification for the warp
// in slot.
func (t *TAGESIB) Spinning(slot int) bool { return t.slots[slot].spin }

// OnBranch observes a taken backward branch at pc by the warp in slot
// and updates the confirmation table exactly as DDOS does: spinning
// warps build confidence, non-spinning warps decay it.
func (t *TAGESIB) OnBranch(slot int, pc int32, isSIB bool, cycle int64) {
	t.onBranch(pc, isSIB, cycle, true, t.slots[slot].spin)
}

// RegisterMetrics registers the predictor's observability surface under
// prefix (e.g. "sm0.tage."): the SIB-PT's counters and detection-quality
// gauges, as DDOS registers them, plus the predictor's
// allocation/decay/accuracy counters.
func (t *TAGESIB) RegisterMetrics(r *metrics.Registry, prefix string) {
	t.SIBPT.RegisterMetrics(r, prefix)
	r.Int64(prefix+"allocations", &t.allocs)
	r.Int64(prefix+"allocation_failures", &t.allocFails)
	r.Int64(prefix+"useful_decays", &t.usefulDecays)
	r.Int64(prefix+"predict_hits", &t.predHits)
	r.Int64(prefix+"predict_misses", &t.predMisses)
}

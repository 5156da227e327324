// Package sched is the warp scheduling policy surface: the baseline
// policies the paper evaluates BOWS against — Loose Round-Robin (LRR),
// Greedy-Then-Oldest (GTO, Rogers et al.) with the paper's periodic age
// rotation, and Criticality-Aware Warp Acceleration (CAWA, Lee et al.)
// — plus the prefetch-mimicking WaSP policy (Joseph et al., arXiv
// 2404.06156) added by the scheduler-zoo extension.
//
// A Policy instance owns the warp slots of one scheduler unit within an
// SM (warps are statically partitioned among schedulers). Each cycle the
// SM pipeline calls Pick with a readiness predicate; the policy returns
// the slot to issue from or -1. BOWS (internal/core) wraps any Policy.
// docs/SCHEDULERS.md walks through the contract and how to add a new
// policy end to end.
package sched

import (
	"fmt"

	"warpsched/internal/config"
	"warpsched/internal/metrics"
)

// WarpMetrics is per-warp run-time accounting shared between the SM
// pipeline (writer) and policies such as CAWA (reader).
type WarpMetrics struct {
	// Issued counts instructions issued by the warp.
	Issued int64
	// ResidentCycles counts cycles the warp was resident and unfinished.
	ResidentCycles int64
	// StallCycles counts resident cycles where the warp could not issue
	// (CAWA's nStall).
	StallCycles int64
	// EstRemaining is CAWA's dynamic remaining-instruction estimate
	// (nInst), updated from branch directions.
	EstRemaining int64
	// Resident marks the slot as holding a live warp.
	Resident bool
}

// CPIAvg returns the warp's average cycles per issued instruction.
func (m *WarpMetrics) CPIAvg() float64 {
	if m.Issued == 0 {
		return 1
	}
	return float64(m.ResidentCycles) / float64(m.Issued)
}

// Policy selects which warp a scheduler unit issues from each cycle.
type Policy interface {
	Name() string
	// Pick returns the slot (SM-wide index) to issue from among this
	// unit's slots for which ready(slot) is true, or -1 if none.
	Pick(cycle int64, ready func(slot int) bool) int
	// OnIssue informs the policy that slot issued at cycle.
	OnIssue(slot int, cycle int64)
	// OnBranch informs the policy of a branch outcome (CAWA's
	// direction-based remaining-instruction estimate).
	OnBranch(slot int, backwardTaken bool)
}

// Instrumented is implemented by policies that export internal counters
// to a metrics registry under a hierarchical prefix (e.g.
// "sm0.sched.u1."). Registration must not change scheduling behavior.
type Instrumented interface {
	RegisterMetrics(r *metrics.Registry, prefix string)
}

// Params carries the per-kind tuning knobs New threads to the policy it
// builds. Kinds ignore knobs that do not concern them, so a caller may
// always populate the whole struct.
type Params struct {
	// GTORotatePeriod is GTO's anti-livelock age rotation period in
	// cycles (paper §IV-C).
	GTORotatePeriod int64
	// WaSP holds the WASP priority-group knobs.
	WaSP config.WaSP
}

// New builds a policy of the given kind for a scheduler unit owning
// slots (SM-wide warp slot indexes). metrics is the SM-wide per-slot
// metrics table. An unknown kind yields an error enumerating the valid
// kinds, which the CLIs surface as a usage error.
func New(kind config.SchedulerKind, slots []int, metrics []WarpMetrics, p Params) (Policy, error) {
	switch kind {
	case config.LRR:
		return NewLRR(slots), nil
	case config.GTO:
		return NewGTO(slots, p.GTORotatePeriod), nil
	case config.CAWA:
		return NewCAWA(slots, metrics), nil
	case config.WASP:
		return NewWaSP(slots, p.WaSP), nil
	default:
		return nil, fmt.Errorf("sched: unknown scheduler kind %q (valid kinds: %v)",
			kind, config.AllSchedulers)
	}
}

// LRR is loose round-robin: scheduling starts from the warp after the
// last issued one, taking the first ready warp.
type LRR struct {
	slots []int
	pos   []int // slot -> index in slots
	next  int   // index into slots to start the scan from
}

// NewLRR returns an LRR policy over slots.
func NewLRR(slots []int) *LRR { return &LRR{slots: slots, pos: slotIndex(slots)} }

// slotIndex inverts slots: out[slot] is slot's index in slots. A unit is
// only ever told about its own slots, so the other entries are never read.
func slotIndex(slots []int) []int {
	n := 0
	for _, s := range slots {
		if s >= n {
			n = s + 1
		}
	}
	out := make([]int, n)
	for i, s := range slots {
		out[s] = i
	}
	return out
}

// Name implements Policy.
func (l *LRR) Name() string { return string(config.LRR) }

// Pick implements Policy.
func (l *LRR) Pick(_ int64, ready func(int) bool) int {
	n := len(l.slots)
	for i := 0; i < n; i++ {
		s := l.slots[(l.next+i)%n]
		if ready(s) {
			return s
		}
	}
	return -1
}

// OnIssue implements Policy.
func (l *LRR) OnIssue(slot int, _ int64) {
	l.next = (l.pos[slot] + 1) % len(l.slots)
}

// OnBranch implements Policy.
func (l *LRR) OnBranch(int, bool) {}

// GTO is greedy-then-oldest: keep issuing from the last warp until it
// stalls, then fall back to the oldest ready warp (lowest slot). Strict
// GTO can livelock busy-wait kernels (paper §IV-C observed this on HT and
// ATM), so the age order rotates every rotatePeriod cycles.
type GTO struct {
	slots        []int
	last         int // last issued slot, -1 if none
	rotatePeriod int64
	rot          int

	// greedyPicks counts issues kept on the last warp; agedPicks counts
	// fallbacks to the rotated age order. Their ratio measures how greedy
	// the workload lets GTO be.
	greedyPicks int64
	agedPicks   int64
}

// NewGTO returns a GTO policy over slots.
func NewGTO(slots []int, rotatePeriod int64) *GTO {
	return &GTO{slots: slots, last: -1, rotatePeriod: rotatePeriod}
}

// Name implements Policy.
func (g *GTO) Name() string { return string(config.GTO) }

// Pick implements Policy.
func (g *GTO) Pick(cycle int64, ready func(int) bool) int {
	if g.rotatePeriod > 0 {
		g.rot = int(cycle/g.rotatePeriod) % len(g.slots)
	}
	if g.last >= 0 && ready(g.last) {
		g.greedyPicks++
		return g.last
	}
	// Scan in rotated order as two straight runs (no per-slot modulo).
	for _, s := range g.slots[g.rot:] {
		if ready(s) {
			g.agedPicks++
			return s
		}
	}
	for _, s := range g.slots[:g.rot] {
		if ready(s) {
			g.agedPicks++
			return s
		}
	}
	return -1
}

// RegisterMetrics implements Instrumented.
func (g *GTO) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.Int64(prefix+"gto_greedy_picks", &g.greedyPicks)
	r.Int64(prefix+"gto_aged_picks", &g.agedPicks)
}

// OnIssue implements Policy.
func (g *GTO) OnIssue(slot int, _ int64) { g.last = slot }

// OnBranch implements Policy.
func (g *GTO) OnBranch(int, bool) {}

// CAWA estimates warp criticality as nInst × CPIavg + nStall (paper §II)
// and prioritizes the most critical ready warp. nInst is a remaining-
// instruction estimate driven by branch directions: a taken backward
// branch predicts another loop iteration's worth of instructions. This
// reproduces the pathology the paper identifies: spinning warps keep
// taking backward branches and accumulating stall cycles, so CAWA keeps
// prioritizing them.
type CAWA struct {
	slots   []int
	metrics []WarpMetrics
	last    int
}

// LoopEstimate is the instruction-count increment charged per taken
// backward branch (one predicted loop iteration).
const LoopEstimate = 16

// NewCAWA returns a CAWA policy over slots reading the SM-wide metrics
// table.
func NewCAWA(slots []int, metrics []WarpMetrics) *CAWA {
	return &CAWA{slots: slots, metrics: metrics, last: -1}
}

// Name implements Policy.
func (c *CAWA) Name() string { return string(config.CAWA) }

// Criticality returns the CAWA criticality metric for slot.
func (c *CAWA) Criticality(slot int) float64 {
	m := &c.metrics[slot]
	return float64(m.EstRemaining)*m.CPIAvg() + float64(m.StallCycles)
}

// Pick implements Policy.
func (c *CAWA) Pick(_ int64, ready func(int) bool) int {
	best, bestCrit := -1, 0.0
	for _, s := range c.slots {
		if !ready(s) {
			continue
		}
		crit := c.Criticality(s)
		// Ties break toward the last issued warp, then lowest slot.
		if best == -1 || crit > bestCrit || (crit == bestCrit && s == c.last) {
			best, bestCrit = s, crit
		}
	}
	return best
}

// OnIssue implements Policy.
func (c *CAWA) OnIssue(slot int, _ int64) {
	c.last = slot
	if m := &c.metrics[slot]; m.EstRemaining > 0 {
		m.EstRemaining--
	}
}

// OnBranch implements Policy.
func (c *CAWA) OnBranch(slot int, backwardTaken bool) {
	if backwardTaken {
		c.metrics[slot].EstRemaining += LoopEstimate
	}
}

// WaSP is the prefetch-mimicking priority-group policy (Joseph et al.,
// arXiv 2404.06156): a small priority group of warps always outranks
// the trailing warps, so the group runs ahead and its memory misses
// warm the caches for the trailing group — a de-facto prefetcher with
// no prefetch hardware. The priority window advances by GroupSize slots
// every RotatePeriod cycles, so leadership (and the attendant extra
// miss latency) rotates through the whole unit.
//
// The rotation is a pure function of the cycle number, like GTO's age
// rotation: the policy carries no phase state, which keeps Pick
// deterministic and makes the fast-forward clock trivially safe to skip
// over it.
type WaSP struct {
	slots []int
	cfg   config.WaSP
	pos   []int // slot -> index in slots
	last  int   // last issued slot, -1 if none

	// priorityPicks counts issues from the priority group, trailingPicks
	// issues that fell through to the trailing group. Their ratio shows
	// how strongly the group is actually leading.
	priorityPicks int64
	trailingPicks int64
}

// NewWaSP returns a WaSP policy over slots with the given group knobs.
func NewWaSP(slots []int, cfg config.WaSP) *WaSP {
	return &WaSP{slots: slots, cfg: cfg, last: -1, pos: slotIndex(slots)}
}

// Name implements Policy.
func (w *WaSP) Name() string { return string(config.WASP) }

// groupStart returns the priority window's first slot index for cycle.
func (w *WaSP) groupStart(cycle int64) int {
	g := w.groupSize()
	phase := cycle / w.cfg.RotatePeriod
	return int((phase * int64(g)) % int64(len(w.slots)))
}

// groupSize returns the effective priority-group size (clamped to the
// unit width so a unit narrower than the knob still has a trailing-free
// group rather than an out-of-range scan).
func (w *WaSP) groupSize() int {
	if g := w.cfg.GroupSize; g < len(w.slots) {
		return g
	}
	return len(w.slots)
}

// Pick implements Policy: greedy on the last issued warp while it stays
// in the priority group (long issue runs are what generate the group's
// early misses), then the priority group in window order, then the
// trailing warps in window order.
func (w *WaSP) Pick(cycle int64, ready func(int) bool) int {
	n := len(w.slots)
	g := w.groupSize()
	start := w.groupStart(cycle)
	if w.last >= 0 && ready(w.last) {
		if d := (w.pos[w.last] - start + n) % n; d < g {
			w.priorityPicks++
			return w.last
		}
	}
	for i := 0; i < n; i++ {
		s := w.slots[(start+i)%n]
		if ready(s) {
			if i < g {
				w.priorityPicks++
			} else {
				w.trailingPicks++
			}
			return s
		}
	}
	return -1
}

// OnIssue implements Policy.
func (w *WaSP) OnIssue(slot int, _ int64) { w.last = slot }

// OnBranch implements Policy.
func (w *WaSP) OnBranch(int, bool) {}

// RegisterMetrics implements Instrumented.
func (w *WaSP) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.Int64(prefix+"wasp_priority_picks", &w.priorityPicks)
	r.Int64(prefix+"wasp_trailing_picks", &w.trailingPicks)
}

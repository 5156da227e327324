// Package sched is the warp scheduling policy surface: the baseline
// policies the paper evaluates BOWS against — Loose Round-Robin (LRR),
// Greedy-Then-Oldest (GTO, Rogers et al.) with the paper's periodic age
// rotation, and Criticality-Aware Warp Acceleration (CAWA, Lee et al.)
// — plus the prefetch-mimicking WaSP policy (Joseph et al., arXiv
// 2404.06156) added by the scheduler-zoo extension.
//
// A Policy instance owns the warp slots of one scheduler unit within an
// SM (warps are statically partitioned among schedulers): one ascending
// run of consecutive slots [base, base+n) inside 0..63, so a set of the
// unit's slots is a uint64 and every shipped policy is "first or best set
// bit in a rotated order". Each cycle the SM pipeline calls PickMask with
// the set of slots that can issue; the policy returns the slot to issue
// from or -1. BOWS (internal/core) wraps any Policy. docs/SCHEDULERS.md
// walks through the contract and how to add a new policy end to end.
package sched

import (
	"fmt"
	"math"
	"math/bits"

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
	// Slots returns the unit's slots as a set, bit s for SM-wide slot s.
	Slots() uint64
	// PickMask returns the slot to issue from, a set bit of ready, or -1.
	// ready ⊆ Slots() is a snapshot of the slots that can issue this cycle,
	// already filtered for scoreboard, barrier, LSQ space and back-off. A
	// call that returns -1 must leave the policy as it found it.
	PickMask(cycle int64, ready uint64) int
	// Pick is PickMask over the slots for which ready(slot) is true. It
	// exists for bench/probes_sim.go, which a PR that claims a gain may not
	// edit; nothing on the simulation path calls it, and it goes (with
	// MaskOf) when the probes are repointed at PickMask.
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
// metrics table. It returns an error naming the list when slots is not a
// non-empty run of ascending consecutive indexes inside 0..63 (the
// precondition of every New* constructor), and an error enumerating the
// valid kinds for an unknown kind, which the CLIs surface as a usage error.
func New(kind config.SchedulerKind, slots []int, metrics []WarpMetrics, p Params) (Policy, error) {
	if err := checkSlots(slots); err != nil {
		return nil, err
	}
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

// checkSlots reports whether slots is what the mask forms require: a
// non-empty run of ascending consecutive slot indexes inside 0..63.
func checkSlots(slots []int) error {
	ok := len(slots) > 0 && slots[0] >= 0 && slots[0]+len(slots) <= 64
	for i := 1; ok && i < len(slots); i++ {
		ok = slots[i] == slots[0]+i
	}
	if !ok {
		return fmt.Errorf("sched: unit slots %v are not a non-empty ascending consecutive range inside 0..63", slots)
	}
	return nil
}

// unit is the slot range [base, base+n) a policy owns.
type unit struct{ base, n int }

// unitOf returns the range of slots, which must satisfy checkSlots.
func unitOf(slots []int) unit { return unit{base: slots[0], n: len(slots)} }

// Slots implements Policy.
func (u unit) Slots() uint64 { return ^uint64(0) >> uint(64-u.n) << uint(u.base) }

// firstFrom returns the lowest set bit of ready at or above from, else the
// lowest set bit of ready (the scan wraps), else -1: the first ready slot of
// a unit in the order rotated to start at slot from (0 ≤ from < 64).
func firstFrom(ready uint64, from int) int {
	if hi := ready >> (uint(from) & 63) << (uint(from) & 63); hi != 0 {
		return bits.TrailingZeros64(hi)
	}
	if ready != 0 {
		return bits.TrailingZeros64(ready)
	}
	return -1
}

// rotation caches which period of a cycle-driven rotation the last pick fell
// in, so the 64-bit divide that finds it is paid once per period instead of
// once per pick. What a policy derives from the period's index stays a pure
// function of the cycle: the cache is keyed by the cycle interval it holds
// for, and a pick outside it — ahead or behind — refills it.
type rotation struct {
	period    int64
	from, end int64 // the cached period covers cycles [from, end)
}

// newRotation returns an empty cache for the given period; a period of zero
// or less is one endless period, entered never.
func newRotation(period int64) rotation {
	if period <= 0 {
		return rotation{from: math.MinInt64, end: math.MaxInt64}
	}
	return rotation{period: period}
}

// entered reports whether cycle lies outside the cached period; if so the
// cache moves to the period that holds cycle and index is that period's
// number, cycle / period.
func (r *rotation) entered(cycle int64) (index int64, ok bool) {
	if cycle >= r.from && cycle < r.end {
		return 0, false
	}
	index = cycle / r.period
	r.from = index * r.period
	r.end = r.from + r.period
	return index, true
}

// MaskOf returns the slots of the set slots for which ready is true, asked
// in ascending order: the closure form of a ready set, for the Pick adapters.
func MaskOf(slots uint64, ready func(slot int) bool) uint64 {
	var out uint64
	for m := slots; m != 0; m &= m - 1 {
		if s := bits.TrailingZeros64(m); ready(s) {
			out |= 1 << uint(s)
		}
	}
	return out
}

// LRR is loose round-robin: scheduling starts from the warp after the
// last issued one, taking the first ready warp.
type LRR struct {
	unit
	next int // offset from base to start the scan from
}

// NewLRR returns an LRR policy over slots, which must be a non-empty run
// of ascending consecutive slot indexes inside 0..63 (New checks it).
func NewLRR(slots []int) *LRR { return &LRR{unit: unitOf(slots)} }

// Name implements Policy.
func (l *LRR) Name() string { return string(config.LRR) }

// PickMask implements Policy.
func (l *LRR) PickMask(_ int64, ready uint64) int { return firstFrom(ready, l.base+l.next) }

// Pick implements Policy.
func (l *LRR) Pick(cycle int64, ready func(int) bool) int {
	return l.PickMask(cycle, MaskOf(l.Slots(), ready))
}

// OnIssue implements Policy.
func (l *LRR) OnIssue(slot int, _ int64) {
	if l.next = slot - l.base + 1; l.next == l.n {
		l.next = 0
	}
}

// OnBranch implements Policy.
func (l *LRR) OnBranch(int, bool) {}

// GTO is greedy-then-oldest: keep issuing from the last warp until it
// stalls, then fall back to the oldest ready warp (lowest slot). Strict
// GTO can livelock busy-wait kernels (paper §IV-C observed this on HT and
// ATM), so the age order rotates every rotatePeriod cycles.
type GTO struct {
	unit
	last int // last issued slot, -1 if none
	// rot, the offset from base the age order starts at, is a pure function
	// of the cycle — (cycle / rotatePeriod) mod n — cached per period.
	rot    int
	period rotation

	// greedyPicks counts issues kept on the last warp; agedPicks counts
	// fallbacks to the rotated age order. Their ratio measures how greedy
	// the workload lets GTO be.
	greedyPicks int64
	agedPicks   int64
}

// NewGTO returns a GTO policy over slots, which must be a non-empty run
// of ascending consecutive slot indexes inside 0..63 (New checks it). A
// rotatePeriod of zero or less never rotates the age order.
func NewGTO(slots []int, rotatePeriod int64) *GTO {
	return &GTO{unit: unitOf(slots), last: -1, period: newRotation(rotatePeriod)}
}

// Name implements Policy.
func (g *GTO) Name() string { return string(config.GTO) }

// PickMask implements Policy.
func (g *GTO) PickMask(cycle int64, ready uint64) int {
	if phase, ok := g.period.entered(cycle); ok {
		g.rot = int(phase) % g.n
	}
	if g.last >= 0 && ready>>uint(g.last)&1 != 0 {
		g.greedyPicks++
		return g.last
	}
	s := firstFrom(ready, g.base+g.rot)
	if s >= 0 {
		g.agedPicks++
	}
	return s
}

// Pick implements Policy.
func (g *GTO) Pick(cycle int64, ready func(int) bool) int {
	return g.PickMask(cycle, MaskOf(g.Slots(), ready))
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
	unit
	metrics []WarpMetrics
	last    int
}

// LoopEstimate is the instruction-count increment charged per taken
// backward branch (one predicted loop iteration).
const LoopEstimate = 16

// NewCAWA returns a CAWA policy over slots reading the SM-wide metrics
// table. slots must be a non-empty run of ascending consecutive slot
// indexes inside 0..63 (New checks it).
func NewCAWA(slots []int, metrics []WarpMetrics) *CAWA {
	return &CAWA{unit: unitOf(slots), metrics: metrics, last: -1}
}

// Name implements Policy.
func (c *CAWA) Name() string { return string(config.CAWA) }

// Criticality returns the CAWA criticality metric for slot.
func (c *CAWA) Criticality(slot int) float64 {
	m := &c.metrics[slot]
	return float64(m.EstRemaining)*m.CPIAvg() + float64(m.StallCycles)
}

// PickMask implements Policy. It visits the ready slots in ascending
// order, so ties break toward the last issued warp, then the lowest slot.
func (c *CAWA) PickMask(_ int64, ready uint64) int {
	best, bestCrit := -1, 0.0
	for m := ready; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		crit := c.Criticality(s)
		if best == -1 || crit > bestCrit || (crit == bestCrit && s == c.last) {
			best, bestCrit = s, crit
		}
	}
	return best
}

// Pick implements Policy.
func (c *CAWA) Pick(cycle int64, ready func(int) bool) int {
	return c.PickMask(cycle, MaskOf(c.Slots(), ready))
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
// rotation: the policy carries no phase state beyond a cache of that
// function's value, which keeps PickMask deterministic and makes the
// fast-forward clock trivially safe to skip over it.
type WaSP struct {
	unit
	group int // priority-group size, clamped to the unit width
	last  int // last issued slot, -1 if none
	// start, the priority window's first slot as an offset from base, is a
	// pure function of the cycle — ((cycle / RotatePeriod) · group) mod n —
	// cached per period.
	start  int
	period rotation

	// priorityPicks counts issues from the priority group, trailingPicks
	// issues that fell through to the trailing group. Their ratio shows
	// how strongly the group is actually leading.
	priorityPicks int64
	trailingPicks int64
}

// NewWaSP returns a WaSP policy over slots with the given group knobs.
// slots must be a non-empty run of ascending consecutive slot indexes
// inside 0..63 (New checks it). A group size above the unit width is
// clamped to it, so a unit narrower than the knob has no trailing warps.
func NewWaSP(slots []int, cfg config.WaSP) *WaSP {
	w := &WaSP{unit: unitOf(slots), group: cfg.GroupSize, last: -1, period: newRotation(cfg.RotatePeriod)}
	if w.group > w.n {
		w.group = w.n
	}
	return w
}

// Name implements Policy.
func (w *WaSP) Name() string { return string(config.WASP) }

// inGroup reports whether slot lies in the priority window that starts at
// offset w.start: its index distance from the window start, going up and
// wrapping at the unit's end, is below the group size.
func (w *WaSP) inGroup(slot int) bool {
	d := slot - w.base - w.start
	if d < 0 {
		d += w.n
	}
	return d < w.group
}

// PickMask implements Policy: greedy on the last issued warp while it stays
// in the priority group (long issue runs are what generate the group's
// early misses), then the priority group in window order, then the
// trailing warps in window order.
func (w *WaSP) PickMask(cycle int64, ready uint64) int {
	if phase, ok := w.period.entered(cycle); ok {
		w.start = int((phase * int64(w.group)) % int64(w.n))
	}
	if w.last >= 0 && ready>>uint(w.last)&1 != 0 && w.inGroup(w.last) {
		w.priorityPicks++
		return w.last
	}
	s := firstFrom(ready, w.base+w.start)
	if s < 0 {
		return -1
	}
	if w.inGroup(s) {
		w.priorityPicks++
	} else {
		w.trailingPicks++
	}
	return s
}

// Pick implements Policy.
func (w *WaSP) Pick(cycle int64, ready func(int) bool) int {
	return w.PickMask(cycle, MaskOf(w.Slots(), ready))
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

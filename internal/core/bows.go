package core

import (
	"math"
	"math/bits"

	"warpsched/internal/config"
	"warpsched/internal/isa"
	"warpsched/internal/metrics"
	"warpsched/internal/sched"
)

// BOWS is one SM's Back-Off Warp Spinning state: per-warp backed-off
// flags, pending back-off delay expiries, and the adaptive delay-limit
// controller of Figure 5. Scheduler units attach through Wrap.
type BOWS struct {
	cfg   config.BOWS
	det   Detector // nil in static (annotation-driven) mode
	limit int64

	// backedOff is the set of backed-off warp slots, bit s for slot s (a
	// machine has at most 64 warp slots per SM — config.GPU.Validate), so
	// the engine's per-cycle accounting is a population count.
	backedOff    uint64
	pendingUntil []int64
	// inSpinLoop tracks whether a warp's most recent taken backward
	// branch was a confirmed SIB; instructions issued while it holds are
	// the controller's "SIB instructions" (see onIssue).
	inSpinLoop []bool

	// Adaptive controller window counters.
	windowStart int64
	totInstr    int64
	sibInstr    int64
	prevRatio   float64
	havePrev    bool

	// lfsr drives the back-off jitter (see onIssue).
	lfsr uint32

	// stats
	sibExecutions int64
	// Adaptive delay-limit controller trajectory: evaluated windows,
	// raise/cut decisions, and the highest limit reached. limitHist, when
	// attached (RegisterMetrics), observes the limit after each window
	// evaluation — off the issue path by construction.
	windowsEvaluated int64
	limitRaises      int64
	limitCuts        int64
	limitPeak        int64
	limitHist        *metrics.Histogram
}

// NewBOWS creates the SM-wide BOWS state. det is the spin detector
// driving SIB confirmation (DDOS or TAGE-SIB); it may be nil when
// cfg.Mode is BOWSStatic.
func NewBOWS(cfg config.BOWS, det Detector, numSlots int) *BOWS {
	limit := cfg.DelayLimit
	if cfg.Adaptive {
		limit = cfg.MinLimit
	}
	return &BOWS{
		cfg:          cfg,
		det:          det,
		limit:        limit,
		limitPeak:    limit,
		pendingUntil: make([]int64, numSlots),
		inSpinLoop:   make([]bool, numSlots),
	}
}

// RegisterMetrics registers the SM's BOWS counters under prefix (e.g.
// "sm0.bows.") and attaches the delay-limit trajectory histogram.
func (b *BOWS) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.Int64(prefix+"sib_executions", &b.sibExecutions)
	r.Int64(prefix+"controller_windows", &b.windowsEvaluated)
	r.Int64(prefix+"delay_limit_raises", &b.limitRaises)
	r.Int64(prefix+"delay_limit_cuts", &b.limitCuts)
	r.Int64(prefix+"delay_limit_peak", &b.limitPeak)
	r.Gauge(prefix+"delay_limit", func() float64 { return float64(b.limit) })
	if b.cfg.Adaptive {
		// Bounds track the Table II controller range (min 1000, step 250,
		// max 10000); out-of-range configurations land in the inf bucket.
		b.limitHist = r.Histogram(prefix+"delay_limit_window",
			[]int64{1000, 2000, 4000, 6000, 8000, 10000})
	}
}

// DelayLimit returns the current back-off delay limit.
func (b *BOWS) DelayLimit() int64 { return b.limit }

// BackedOff reports whether the warp in slot is in the backed-off state.
func (b *BOWS) BackedOff(slot int) bool { return b.backedOff>>uint(slot)&1 != 0 }

// BackedOffMask returns the backed-off warp slots as a bitmask.
func (b *BOWS) BackedOffMask() uint64 { return b.backedOff }

// IsSIB resolves the active trigger source for a branch instruction.
func (b *BOWS) IsSIB(pc int32, in *isa.Instr) bool {
	switch b.cfg.Mode {
	case config.BOWSStatic:
		return in.HasAnn(isa.AnnSIB)
	case config.BOWSDDOS:
		return b.det != nil && b.det.IsSIB(pc)
	}
	return false
}

// OnSIB records that the warp in slot executed (took) a spin-inducing
// branch: it enters the backed-off state (Figure 4, step 6).
func (b *BOWS) OnSIB(slot int) {
	b.sibExecutions++
	b.backedOff |= 1 << uint(slot)
	b.inSpinLoop[slot] = true
}

// OnBackwardNonSIB records a taken backward branch that is not a SIB: the
// warp has moved to a different (non-spin) loop.
func (b *BOWS) OnBackwardNonSIB(slot int) { b.inSpinLoop[slot] = false }

// onIssue accounts an issued instruction and handles backed-off exit: the
// warp leaves the state and its pending back-off delay restarts at the
// current limit (Figure 4, steps 3-4), plus a small LFSR-derived jitter.
//
// The jitter is an implementation addition: with a perfectly uniform
// delay, warps whose critical sections symmetrically conflict (e.g. the
// nested try-locks of ATM/DS, where A holds account X wanting Y while B
// holds Y wanting X) are re-released in lockstep and can retry-collide
// forever — a convoy livelock that real machines escape through timing
// noise the simulator does not otherwise model. A per-SM 16-bit LFSR
// (trivial hardware) spreads retries over [limit, 1.5·limit + 32), which
// preserves the paper's minimum-interval semantics.
func (b *BOWS) onIssue(slot int, cycle int64) {
	b.totInstr++
	// Figure 5's "SIB Instructions": the dynamic instructions attributable
	// to busy waiting. We attribute an issued instruction to spinning when
	// the issuing warp is inside a confirmed spin loop (its most recent
	// taken backward branch was a SIB) AND the detector currently
	// classifies it as spinning — the only reading under which the
	// FRAC1=0.5 threshold of Table II can ever trigger (the SIB branch
	// itself is at most ~20% of a spin iteration), while productive
	// polling loops (wait-and-signal kernels whose values change) do not
	// drive the limit up.
	if b.inSpinLoop[slot] && (b.det == nil || b.det.Spinning(slot)) {
		b.sibInstr++
	}
	if b.BackedOff(slot) {
		b.backedOff &^= 1 << uint(slot)
		b.pendingUntil[slot] = cycle + b.limit + b.jitter()
	}
}

func (b *BOWS) jitter() int64 {
	// 16-bit Galois LFSR, taps 0xB400.
	if b.lfsr == 0 {
		b.lfsr = 0xACE1
	}
	lsb := b.lfsr & 1
	b.lfsr >>= 1
	if lsb != 0 {
		b.lfsr ^= 0xB400
	}
	span := b.limit/2 + 32
	return int64(b.lfsr) % span
}

// eligible reports whether a backed-off warp may issue: its pending
// back-off delay must have expired.
func (b *BOWS) eligible(slot int, cycle int64) bool {
	return cycle >= b.pendingUntil[slot]
}

// minWindowInstrs is the minimum issued-instruction sample an adaptive
// window must contain before the Figure 5 conditions are evaluated. The
// paper evaluates every T=1000 cycles on SMs issuing ~2 IPC (≈2000
// instructions per window); a lightly loaded or heavily backed-off SM in
// this simulator can see under a hundred, making the window-over-window
// ratio test fire on sampling noise and pin the limit at the minimum.
// Accumulating windows until the sample matches the paper's effective
// window size preserves the controller's semantics across load levels.
const minWindowInstrs = 512

// Tick advances the adaptive delay-limit controller (Figure 5). Called
// once per SM cycle.
func (b *BOWS) Tick(cycle int64) {
	if !b.cfg.Adaptive {
		return
	}
	if cycle-b.windowStart < b.cfg.WindowCycles {
		return
	}
	if b.totInstr < minWindowInstrs {
		return // keep accumulating until the sample is meaningful
	}
	b.windowStart = cycle
	tot, sib := b.totInstr, b.sibInstr
	b.totInstr, b.sibInstr = 0, 0
	b.windowsEvaluated++
	if float64(sib) > b.cfg.Frac1*float64(tot) {
		b.limit += b.cfg.DelayStep
		b.limitRaises++
	}
	if sib > 0 {
		ratio := float64(tot) / float64(sib)
		if b.havePrev && ratio < b.cfg.Frac2*b.prevRatio {
			b.limit -= 2 * b.cfg.DelayStep
			b.limitCuts++
		}
		b.prevRatio = ratio
		b.havePrev = true
	}
	if b.limit > b.cfg.MaxLimit {
		b.limit = b.cfg.MaxLimit
	}
	if b.limit < b.cfg.MinLimit {
		b.limit = b.cfg.MinLimit
	}
	if b.limit > b.limitPeak {
		b.limitPeak = b.limit
	}
	if b.limitHist != nil {
		b.limitHist.Observe(b.limit)
	}
}

// NextWindowBoundary returns the next cycle at which Tick's adaptive
// delay-limit controller can fire, for the engine's event-driven clock:
// math.MaxInt64 when Tick is currently a pure no-op (fixed limit, or the
// window has not yet accumulated minWindowInstrs — issue events, not the
// passage of time, unblock that case), otherwise the end of the window in
// progress. When the returned boundary is in the past the controller is
// instead gated on instructions, which cannot arrive while the whole
// machine is stalled — the engine treats such a value as "do not skip".
func (b *BOWS) NextWindowBoundary() int64 {
	if !b.cfg.Adaptive || b.totInstr < minWindowInstrs {
		return math.MaxInt64
	}
	return b.windowStart + b.cfg.WindowCycles
}

// Wrapped is the per-scheduler-unit BOWS arbitration of Figure 8: the
// base policy chooses among ready, non-backed-off warps; only when none
// exists may a ready backed-off warp whose pending delay has expired
// issue, in backed-off queue (FIFO) order.
type Wrapped struct {
	base sched.Policy
	bows *BOWS
	// queue is the backed-off FIFO for this unit's slots. As a set it is
	// exactly the unit's share of bows.backedOff (OnSIB and OnIssue move
	// both together), which is what lets PickMask and BackoffStall decide
	// "no ready backed-off warp" from the masks without walking it.
	queue []int

	// stats: backed-off queue pushes, its high-water mark, and issue
	// attempts rejected because a ready backed-off warp's pending delay
	// had not expired (the Figure 4 back-off stalls).
	enqueues     int64
	queuePeak    int64
	blockedPicks int64
}

var _ sched.Policy = (*Wrapped)(nil)

// Wrap attaches BOWS arbitration to a base policy for one scheduler unit.
func Wrap(base sched.Policy, b *BOWS) *Wrapped { return &Wrapped{base: base, bows: b} }

// Name implements sched.Policy.
func (w *Wrapped) Name() string { return w.base.Name() + "+BOWS" }

// Slots implements sched.Policy.
func (w *Wrapped) Slots() uint64 { return w.base.Slots() }

// PickMask implements sched.Policy.
func (w *Wrapped) PickMask(cycle int64, ready uint64) int {
	backedOff := ready & w.bows.backedOff
	if front := ready &^ backedOff; front != 0 {
		if s := w.base.PickMask(cycle, front); s >= 0 {
			return s
		}
	}
	if backedOff == 0 {
		return -1
	}
	for _, s := range w.queue {
		if backedOff>>uint(s)&1 != 0 {
			if w.bows.eligible(s, cycle) {
				return s
			}
			w.blockedPicks++
		}
	}
	return -1
}

// Pick implements sched.Policy.
func (w *Wrapped) Pick(cycle int64, ready func(int) bool) int {
	return w.PickMask(cycle, sched.MaskOf(w.Slots(), ready))
}

// OnIssue implements sched.Policy.
func (w *Wrapped) OnIssue(slot int, cycle int64) {
	if w.bows.BackedOff(slot) {
		for i, s := range w.queue {
			if s == slot {
				w.queue = append(w.queue[:i], w.queue[i+1:]...)
				break
			}
		}
	}
	w.bows.onIssue(slot, cycle)
	w.base.OnIssue(slot, cycle)
}

// OnBranch implements sched.Policy.
func (w *Wrapped) OnBranch(slot int, backwardTaken bool) {
	w.base.OnBranch(slot, backwardTaken)
}

// OnSIB pushes the warp to the back of this unit's backed-off queue.
func (w *Wrapped) OnSIB(slot int) {
	if !w.bows.BackedOff(slot) {
		w.queue = append(w.queue, slot)
		w.enqueues++
		if n := int64(len(w.queue)); n > w.queuePeak {
			w.queuePeak = n
		}
	}
	w.bows.OnSIB(slot)
}

// Queue returns the backed-off FIFO, oldest first, for tests and the
// engine's invariant checker. The slice is the wrapper's own: read only.
func (w *Wrapped) Queue() []int { return w.queue }

// BackoffStall supports the engine's event-driven clock. Given the unit's
// ready set in the current all-stalled machine state, it reports the
// earliest back-off expiry among the ready backed-off warps (math.MaxInt64
// when there is none) and how many of them a failing PickMask walks past.
// While every warp is stalled, each skipped cycle's PickMask would scan the
// whole queue and count one blocked pick per ready warp (none is eligible,
// or the machine would not be stalled), so the engine bulk-credits
// readyBlocked × skipped cycles through CreditBlockedPicks.
func (w *Wrapped) BackoffStall(ready uint64) (nextWake int64, readyBlocked int64) {
	nextWake = math.MaxInt64
	blocked := ready & w.bows.backedOff
	for m := blocked; m != 0; m &= m - 1 {
		if pu := w.bows.pendingUntil[bits.TrailingZeros64(m)]; pu < nextWake {
			nextWake = pu
		}
	}
	return nextWake, int64(bits.OnesCount64(blocked))
}

// CreditBlockedPicks bulk-credits blocked pick attempts for cycles the
// engine's event-driven clock skipped (see BackoffStall).
func (w *Wrapped) CreditBlockedPicks(n int64) { w.blockedPicks += n }

// BlockedPicks returns issue attempts rejected by an unexpired back-off
// delay.
func (w *Wrapped) BlockedPicks() int64 { return w.blockedPicks }

// RegisterMetrics registers the scheduler unit's back-off arbitration
// counters under prefix (e.g. "sm0.sched.u1.") and forwards to the base
// policy when it is instrumented.
func (w *Wrapped) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.Int64(prefix+"backoff_enqueues", &w.enqueues)
	r.Int64(prefix+"backoff_queue_peak", &w.queuePeak)
	r.Int64(prefix+"backoff_blocked_picks", &w.blockedPicks)
	r.Gauge(prefix+"backoff_queue_len", func() float64 { return float64(len(w.queue)) })
	if ins, ok := w.base.(sched.Instrumented); ok {
		ins.RegisterMetrics(r, prefix)
	}
}

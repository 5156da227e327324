package core

// The closure-at-a-time BOWS arbitration that Wrapped.PickMask replaced,
// kept verbatim as the reference of a differential test: two wrappers, each
// over its own base policy and its own BOWS state, are fed one seeded
// stream of ready sets, cycles, issues, SIBs and branches, and after every
// step everything either side exposes must agree.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/sched"
)

// refBase is the predicate-at-a-time policy surface the reference wrapper
// was written against.
type refBase interface {
	Pick(cycle int64, ready func(slot int) bool) int
	OnIssue(slot int, cycle int64)
}

// closureBase presents a mask policy as a refBase: it asks the predicate
// about each of the unit's slots and picks from that set. That the mask
// policies equal the slot scans they replaced is internal/sched's
// differential test; this one is about the wrapper.
type closureBase struct{ sched.Policy }

func (c closureBase) Pick(cycle int64, ready func(int) bool) int {
	var set uint64
	for s := 0; s < 64; s++ {
		if c.Slots()>>uint(s)&1 != 0 && ready(s) {
			set |= 1 << uint(s)
		}
	}
	return c.PickMask(cycle, set)
}

type refWrapped struct {
	base  refBase
	bows  *BOWS
	queue []int // backed-off FIFO for this unit's slots

	// curReady is the ready predicate of the Pick in progress; filtered
	// is the backed-off-excluding wrapper built once at Wrap time so Pick
	// allocates no closure per cycle.
	curReady func(int) bool
	filtered func(int) bool

	enqueues     int64
	queuePeak    int64
	blockedPicks int64
}

func refWrap(base refBase, b *BOWS) *refWrapped {
	w := &refWrapped{base: base, bows: b}
	w.filtered = func(slot int) bool {
		return !w.bows.BackedOff(slot) && w.curReady(slot)
	}
	return w
}

func (w *refWrapped) Pick(cycle int64, ready func(int) bool) int {
	w.curReady = ready
	if s := w.base.Pick(cycle, w.filtered); s >= 0 {
		return s
	}
	for _, s := range w.queue {
		if ready(s) {
			if w.bows.eligible(s, cycle) {
				return s
			}
			w.blockedPicks++
		}
	}
	return -1
}

func (w *refWrapped) OnIssue(slot int, cycle int64) {
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

func (w *refWrapped) OnSIB(slot int) {
	if !w.bows.BackedOff(slot) {
		w.queue = append(w.queue, slot)
		w.enqueues++
		if n := int64(len(w.queue)); n > w.queuePeak {
			w.queuePeak = n
		}
	}
	w.bows.OnSIB(slot)
}

func (w *refWrapped) BackoffStall(ready func(int) bool) (nextWake int64, readyBlocked int64) {
	nextWake = math.MaxInt64
	for _, s := range w.queue {
		if !ready(s) {
			continue
		}
		readyBlocked++
		if pu := w.bows.pendingUntil[s]; pu < nextWake {
			nextWake = pu
		}
	}
	return nextWake, readyBlocked
}

// wrappedState is everything a wrapper and its BOWS expose apart from
// blockedPicks (which a failing pick is meant to move), in a form ==
// compares.
type wrappedState struct {
	queue               [64]int
	queueLen            int
	enqueues, queuePeak int64
	backedOff           uint64
	pendingUntil        [64]int64
	inSpinLoop          [64]bool
	sibExecutions       int64
	lfsr                uint32
}

func stateOf(queue []int, enqueues, queuePeak int64, b *BOWS) wrappedState {
	s := wrappedState{queueLen: len(queue), enqueues: enqueues, queuePeak: queuePeak,
		backedOff: b.backedOff, sibExecutions: b.sibExecutions, lfsr: b.lfsr}
	copy(s.queue[:], queue)
	copy(s.pendingUntil[:], b.pendingUntil)
	copy(s.inSpinLoop[:], b.inSpinLoop)
	return s
}

// TestDifferentialAgainstClosureWrapper: 25 000 steps per unit shape under
// each base policy, 125 000 per policy. The delay limit is a few dozen
// cycles and the clock moves by a few, so every stream holds ready
// backed-off warps both before and after their pendingUntil expires.
func TestDifferentialAgainstClosureWrapper(t *testing.T) {
	shapes := [][2]int{{0, 1}, {0, 24}, {24, 24}, {32, 32}, {0, 64}}
	const steps = 25_000
	params := sched.Params{GTORotatePeriod: 97, WaSP: config.WaSP{GroupSize: 4, RotatePeriod: 97}}
	for _, kind := range config.AllSchedulers {
		for _, sh := range shapes {
			base, n := sh[0], sh[1]
			t.Run(fmt.Sprintf("%s/[%d,%d)", kind, base, base+n), func(t *testing.T) {
				slots := make([]int, n)
				for i := range slots {
					slots[i] = base + i
				}
				full := ^uint64(0) >> uint(64-n) << uint(base)
				newBase := func(wm []sched.WarpMetrics) sched.Policy {
					p, err := sched.New(kind, slots, wm, params)
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				// Each side owns a metrics table (CAWA writes EstRemaining),
				// perturbed identically below.
				wmNew, wmRef := make([]sched.WarpMetrics, 64), make([]sched.WarpMetrics, 64)
				bNew, bRef := NewBOWS(config.FixedBOWS(40), nil, 64), NewBOWS(config.FixedBOWS(40), nil, 64)
				w := Wrap(newBase(wmNew), bNew)
				ref := refWrap(closureBase{newBase(wmRef)}, bRef)

				rng := rand.New(rand.NewSource(int64(7000*base + n)))
				pick := func() int { return base + rng.Intn(n) }
				var cycle int64
				var expired, unexpired, failing int
				for step := 0; step < steps; step++ {
					switch k := rng.Intn(40); {
					case k == 0:
						cycle += 500 // over several rotation periods and every pending delay
					case k < 3:
						cycle = (cycle/97+1)*97 - int64(k-1) // the last cycle of a period, or the first of the next
					default:
						cycle += int64(rng.Intn(3))
					}
					var ready uint64
					switch k := rng.Intn(10); {
					case k == 0:
					case k == 1:
						ready = full
					case k < 4:
						ready = 1 << uint(pick())
					case k < 7:
						ready = rng.Uint64() & rng.Uint64() & full
					default:
						ready = rng.Uint64() & full
					}
					if rng.Intn(4) == 0 {
						ready |= 1 << uint(base+n-1)
					}
					if rng.Intn(3) == 0 {
						ready &= bNew.backedOff // only backed-off warps ready: the FIFO decides
					}
					inReady := func(s int) bool { return ready>>uint(s)&1 != 0 }
					for m := ready & bNew.backedOff; m != 0; m &= m - 1 {
						if bNew.eligible(bits.TrailingZeros64(m), cycle) {
							expired++
						} else {
							unexpired++
						}
					}

					wake, blocked := w.BackoffStall(ready)
					if rw, rb := ref.BackoffStall(inReady); wake != rw || blocked != rb {
						t.Fatalf("step %d: BackoffStall = (%d, %d), reference (%d, %d)", step, wake, blocked, rw, rb)
					}
					before := stateOf(w.queue, w.enqueues, w.queuePeak, bNew)
					got, want := w.PickMask(cycle, ready), ref.Pick(cycle, inReady)
					if got != want {
						t.Fatalf("step %d cycle %d ready %#x backed off %#x queue %v: PickMask = %d, reference Pick = %d",
							step, cycle, ready, bNew.backedOff, w.queue, got, want)
					}
					if got >= 0 && !inReady(got) {
						t.Fatalf("step %d: picked slot %d is not in ready set %#x", step, got, ready)
					}
					if w.blockedPicks != ref.blockedPicks {
						t.Fatalf("step %d: blockedPicks = %d, reference %d", step, w.blockedPicks, ref.blockedPicks)
					}
					if got < 0 {
						failing++
						if after := stateOf(w.queue, w.enqueues, w.queuePeak, bNew); after != before {
							t.Fatalf("step %d: failing pick changed state\n%+v\n%+v", step, before, after)
						}
					}

					if got >= 0 && rng.Intn(10) < 8 {
						w.OnIssue(got, cycle)
						ref.OnIssue(got, cycle)
					}
					if rng.Intn(3) == 0 {
						s := pick()
						w.OnSIB(s)
						ref.OnSIB(s)
					}
					if rng.Intn(10) == 0 {
						s := pick()
						bNew.OnBackwardNonSIB(s)
						bRef.OnBackwardNonSIB(s)
					}
					if rng.Intn(5) == 0 {
						s, taken := pick(), rng.Intn(2) == 0
						w.OnBranch(s, taken)
						ref.base.(closureBase).OnBranch(s, taken)
					}
					if rng.Intn(2) == 0 {
						s := pick()
						issued := int64(rng.Intn(50))
						m := sched.WarpMetrics{Resident: true, Issued: issued, ResidentCycles: issued + int64(rng.Intn(400)),
							StallCycles: int64(rng.Intn(300)), EstRemaining: int64(rng.Intn(64))}
						wmNew[s], wmRef[s] = m, m
					}
					sn, sr := stateOf(w.queue, w.enqueues, w.queuePeak, bNew), stateOf(ref.queue, ref.enqueues, ref.queuePeak, bRef)
					if sn != sr || [64]sched.WarpMetrics(wmNew) != [64]sched.WarpMetrics(wmRef) {
						t.Fatalf("step %d: state diverged\n%+v\n%+v", step, sn, sr)
					}
				}
				if expired == 0 || unexpired == 0 || failing == 0 {
					t.Fatalf("stream too tame: %d expired and %d unexpired ready backed-off warps, %d failing picks", expired, unexpired, failing)
				}
			})
		}
	}
}

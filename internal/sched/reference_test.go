package sched

// The slot-at-a-time policies PickMask replaced, kept verbatim as the
// reference of a differential test: the same seeded stream of ready sets,
// cycles, issues, branches and metric updates is fed to a mask policy and
// to its reference, and after every step the returned slot and all state
// either side exposes must agree.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"warpsched/internal/config"
)

type refLRR struct {
	slots []int
	pos   []int // slot -> index in slots
	next  int   // index into slots to start the scan from
}

func newRefLRR(slots []int) *refLRR { return &refLRR{slots: slots, pos: refSlotIndex(slots)} }

// refSlotIndex inverts slots: out[slot] is slot's index in slots.
func refSlotIndex(slots []int) []int {
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

func (l *refLRR) Pick(_ int64, ready func(int) bool) int {
	n := len(l.slots)
	for i := 0; i < n; i++ {
		s := l.slots[(l.next+i)%n]
		if ready(s) {
			return s
		}
	}
	return -1
}

func (l *refLRR) OnIssue(slot int, _ int64) {
	l.next = (l.pos[slot] + 1) % len(l.slots)
}

func (l *refLRR) OnBranch(int, bool) {}

type refGTO struct {
	slots        []int
	last         int // last issued slot, -1 if none
	rotatePeriod int64
	rot          int

	greedyPicks int64
	agedPicks   int64
}

func newRefGTO(slots []int, rotatePeriod int64) *refGTO {
	return &refGTO{slots: slots, last: -1, rotatePeriod: rotatePeriod}
}

func (g *refGTO) Pick(cycle int64, ready func(int) bool) int {
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

func (g *refGTO) OnIssue(slot int, _ int64) { g.last = slot }

func (g *refGTO) OnBranch(int, bool) {}

type refCAWA struct {
	slots   []int
	metrics []WarpMetrics
	last    int
}

func newRefCAWA(slots []int, metrics []WarpMetrics) *refCAWA {
	return &refCAWA{slots: slots, metrics: metrics, last: -1}
}

func (c *refCAWA) Criticality(slot int) float64 {
	m := &c.metrics[slot]
	return float64(m.EstRemaining)*m.CPIAvg() + float64(m.StallCycles)
}

func (c *refCAWA) Pick(_ int64, ready func(int) bool) int {
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

func (c *refCAWA) OnIssue(slot int, _ int64) {
	c.last = slot
	if m := &c.metrics[slot]; m.EstRemaining > 0 {
		m.EstRemaining--
	}
}

func (c *refCAWA) OnBranch(slot int, backwardTaken bool) {
	if backwardTaken {
		c.metrics[slot].EstRemaining += LoopEstimate
	}
}

type refWaSP struct {
	slots []int
	cfg   config.WaSP
	pos   []int // slot -> index in slots
	last  int   // last issued slot, -1 if none

	priorityPicks int64
	trailingPicks int64
}

func newRefWaSP(slots []int, cfg config.WaSP) *refWaSP {
	return &refWaSP{slots: slots, cfg: cfg, last: -1, pos: refSlotIndex(slots)}
}

// groupStart returns the priority window's first slot index for cycle.
func (w *refWaSP) groupStart(cycle int64) int {
	g := w.groupSize()
	phase := cycle / w.cfg.RotatePeriod
	return int((phase * int64(g)) % int64(len(w.slots)))
}

func (w *refWaSP) groupSize() int {
	if g := w.cfg.GroupSize; g < len(w.slots) {
		return g
	}
	return len(w.slots)
}

func (w *refWaSP) Pick(cycle int64, ready func(int) bool) int {
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

func (w *refWaSP) OnIssue(slot int, _ int64) { w.last = slot }

func (w *refWaSP) OnBranch(int, bool) {}

// refPolicy is what the differential driver needs of a reference.
type refPolicy interface {
	Pick(cycle int64, ready func(int) bool) int
	OnIssue(slot int, cycle int64)
	OnBranch(slot int, backwardTaken bool)
}

// diffPair is a mask policy and its reference under one stream of events.
// state returns everything each side exposes, as two values == compares;
// a failing pick may not change the mask policy's.
type diffPair struct {
	pol   Policy
	ref   refPolicy
	state func() (pol, ref any)
	// derived returns what each side derived from the cycle of its last
	// pick (GTO's rotation, WaSP's window start): equal after every pick,
	// and free to move on a failing one.
	derived func(cycle int64) (pol, ref int)
	// polMetrics and refMetrics are the two sides' own metrics tables (CAWA
	// writes them), perturbed identically by the driver.
	polMetrics, refMetrics []WarpMetrics
}

// The rotation periods are short so the cycle stream crosses hundreds of
// boundaries; periodJump strides over several at once.
const (
	diffPeriod = 97
	periodJump = 5*diffPeriod + 3
)

func newDiffPair(kind config.SchedulerKind, slots []int) diffPair {
	wasp := config.WaSP{GroupSize: 4, RotatePeriod: diffPeriod}
	pm, rm := make([]WarpMetrics, 64), make([]WarpMetrics, 64)
	pol, err := New(kind, slots, pm, Params{GTORotatePeriod: diffPeriod, WaSP: wasp})
	if err != nil {
		panic(err)
	}
	d := diffPair{pol: pol, polMetrics: pm, refMetrics: rm,
		derived: func(int64) (int, int) { return 0, 0 }}
	switch p := pol.(type) {
	case *LRR:
		r := newRefLRR(slots)
		d.ref = r
		d.state = func() (any, any) { return p.next, r.next }
	case *GTO:
		r := newRefGTO(slots, diffPeriod)
		d.ref = r
		d.state = func() (any, any) {
			return [3]int64{int64(p.last), p.greedyPicks, p.agedPicks}, [3]int64{int64(r.last), r.greedyPicks, r.agedPicks}
		}
		d.derived = func(int64) (int, int) { return p.rot, r.rot }
	case *CAWA:
		r := newRefCAWA(slots, rm)
		d.ref = r
		type cawaState struct {
			last    int
			metrics [64]WarpMetrics
		}
		d.state = func() (any, any) {
			return cawaState{p.last, [64]WarpMetrics(pm)}, cawaState{r.last, [64]WarpMetrics(rm)}
		}
	case *WaSP:
		r := newRefWaSP(slots, wasp)
		d.ref = r
		d.state = func() (any, any) {
			return [3]int64{int64(p.last), p.priorityPicks, p.trailingPicks}, [3]int64{int64(r.last), r.priorityPicks, r.trailingPicks}
		}
		d.derived = func(cycle int64) (int, int) { return p.start, r.groupStart(cycle) }
	}
	return d
}

// randReady draws a subset of the unit [base, base+n): empty, a single
// bit, the full unit, or a random subset of random density; the unit's top
// slot (bit 63 for the shapes that reach it) is forced in now and then.
func randReady(rng *rand.Rand, base, n int) uint64 {
	full := ^uint64(0) >> uint(64-n) << uint(base)
	var m uint64
	switch k := rng.Intn(10); {
	case k == 0:
		return 0
	case k == 1:
		return full
	case k < 4:
		return 1 << uint(base+rng.Intn(n))
	case k < 7:
		m = rng.Uint64() & rng.Uint64() & rng.Uint64() & full
	default:
		m = rng.Uint64() & full
	}
	if rng.Intn(4) == 0 {
		m |= 1 << uint(base+n-1)
	}
	return m
}

// nextCycle advances the clock: mostly by a cycle or two, sometimes to the
// last cycle of a rotation period or the first of the next, sometimes over
// several periods at once, and now and then backwards (the engine never
// does, but the phase caches are two-sided).
func nextCycle(rng *rand.Rand, cycle int64) int64 {
	switch k := rng.Intn(40); {
	case k == 0:
		return cycle + periodJump + int64(rng.Intn(diffPeriod))
	case k == 1:
		return (cycle/diffPeriod+1)*diffPeriod - 1
	case k == 2:
		return (cycle/diffPeriod + 1) * diffPeriod
	case k == 3 && cycle > periodJump:
		return cycle - int64(rng.Intn(periodJump))
	default:
		return cycle + int64(rng.Intn(3))
	}
}

// perturbMetrics rewrites some of the unit's WarpMetrics, the same way in
// both tables, and regularly forces ties: a few slots are given one slot's
// exact values — the last issued slot's (a tie on last) or another's (a tie
// the lowest slot wins).
func perturbMetrics(rng *rand.Rand, base, n, last int, tables ...[]WarpMetrics) {
	set := func(slot int, m WarpMetrics) {
		for _, t := range tables {
			t[slot] = m
		}
	}
	pick := func() int { return base + rng.Intn(n) }
	switch k := rng.Intn(8); {
	case k < 4:
		s := pick()
		issued := int64(rng.Intn(50))
		set(s, WarpMetrics{Resident: true, Issued: issued, ResidentCycles: issued + int64(rng.Intn(400)),
			StallCycles: int64(rng.Intn(300)), EstRemaining: int64(rng.Intn(64))})
	case k < 6:
		from := pick()
		if k == 5 && last >= 0 {
			from = last
		}
		for i := rng.Intn(4) + 1; i > 0; i-- {
			set(pick(), tables[0][from])
		}
	}
}

// TestDifferentialAgainstSlotScan is the proof that PickMask is the old
// Pick: 25 000 steps per unit shape, 125 000 per policy.
func TestDifferentialAgainstSlotScan(t *testing.T) {
	shapes := [][2]int{{0, 1}, {0, 24}, {24, 24}, {32, 32}, {0, 64}}
	const steps = 25_000
	for _, kind := range config.AllSchedulers {
		for _, sh := range shapes {
			base, n := sh[0], sh[1]
			t.Run(fmt.Sprintf("%s/[%d,%d)", kind, base, base+n), func(t *testing.T) {
				slots := make([]int, n)
				for i := range slots {
					slots[i] = base + i
				}
				d := newDiffPair(kind, slots)
				rng := rand.New(rand.NewSource(int64(1000*base + n)))
				cycle, last := int64(0), -1
				for step := 0; step < steps; step++ {
					cycle = nextCycle(rng, cycle)
					ready := randReady(rng, base, n)
					before, _ := d.state()
					got := d.pol.PickMask(cycle, ready)
					want := d.ref.Pick(cycle, func(s int) bool { return ready>>uint(s)&1 != 0 })
					if got != want {
						t.Fatalf("step %d cycle %d ready %#x: PickMask = %d, reference Pick = %d", step, cycle, ready, got, want)
					}
					if got >= 0 && ready>>uint(got)&1 == 0 {
						t.Fatalf("step %d: picked slot %d is not in ready set %#x", step, got, ready)
					}
					if dp, dr := d.derived(cycle); dp != dr {
						t.Fatalf("step %d cycle %d: cached rotation %d, reference %d", step, cycle, dp, dr)
					}
					if after, _ := d.state(); got < 0 && after != before {
						t.Fatalf("step %d: failing pick changed state %v -> %v", step, before, after)
					}
					if got >= 0 && rng.Intn(10) < 7 {
						d.pol.OnIssue(got, cycle)
						d.ref.OnIssue(got, cycle)
						last = got
					} else if rng.Intn(10) == 0 { // an issue the pick did not choose moves last off the ready set
						last = base + rng.Intn(n)
						d.pol.OnIssue(last, cycle)
						d.ref.OnIssue(last, cycle)
					}
					if rng.Intn(5) == 0 {
						s, taken := base+rng.Intn(n), rng.Intn(2) == 0
						d.pol.OnBranch(s, taken)
						d.ref.OnBranch(s, taken)
					}
					perturbMetrics(rng, base, n, last, d.polMetrics, d.refMetrics)
					if sp, sr := d.state(); sp != sr {
						t.Fatalf("step %d: state diverged: %v vs reference %v", step, sp, sr)
					}
				}
			})
		}
	}
}

// TestFirstFrom pins the primitive every rotated scan is built from.
func TestFirstFrom(t *testing.T) {
	cases := []struct {
		ready uint64
		from  int
		want  int
	}{
		{0, 0, -1},
		{0, 63, -1},
		{0b1010, 0, 1},
		{0b1010, 1, 1},
		{0b1010, 2, 3},
		{0b1010, 4, 1}, // wraps
		{1 << 63, 0, 63},
		{1 << 63, 63, 63},
		{1<<63 | 1<<40, 41, 63},
		{1<<63 | 1<<40, 63, 63},
		{1 << 40, 63, 40},
	}
	for _, tc := range cases {
		if got := firstFrom(tc.ready, tc.from); got != tc.want {
			t.Errorf("firstFrom(%#x, %d) = %d, want %d", tc.ready, tc.from, got, tc.want)
		}
	}
	if got := bits.OnesCount64(unit{base: 32, n: 32}.Slots()); got != 32 {
		t.Errorf("unit [32,64) has %d slots", got)
	}
}

package mem

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/isa"
)

// The reference L2 service queue: the flat arrival-ordered slice, its
// per-entry busy-until cache and the stuck-scan replay, exactly as Tick's
// step 3 walked them before the index (l2queue.go) replaced the walk. It
// looks at every queued entry on every cycle, which is what made it slow
// and what makes it easy to believe. The differential test drives it and
// the indexed queue with the same seeded traffic and requires the two
// memory systems to agree on everything observable after every cycle.

type refEntry struct {
	seg       *segment
	line      uint32
	sm        int32
	atomic    bool
	busyUntil int64
}

// refSystem is a System whose L2 queue is the reference one. Everything
// else — completion wheel, DRAM queue, ports, functional store, statistics,
// fault injector — is the embedded System's, whose own l2q only catches
// what inject pushes until harvest moves it over.
type refSystem struct {
	*System
	l2Queue      []refEntry
	atomBusy     map[uint32]int64
	l2Nacks      []int64
	l2StuckUntil int64
}

func newRefSystem(s *System) *refSystem {
	return &refSystem{System: s, atomBusy: make(map[uint32]int64), l2Nacks: make([]int64, len(s.ports))}
}

// tick is Tick with the reference step 3.
func (s *refSystem) tick(cycle int64) {
	s.cycle = cycle
	s.fireDue(cycle)
	for n := s.cfg.DRAMBw; n > 0 && s.dramQueue.len() > 0; n-- {
		seg := s.dramQueue.pop()
		s.ports[seg.req.SM].stats.DRAMAccesses++
		s.schedule(cycle+s.cfg.DRAMLat, evDRAMDone, seg)
	}

	// --- step 3, verbatim from the flat-queue Tick ---
	s.l2Tokens += int64(s.cfg.L2Banks)
	if s.l2Tokens > 4*int64(s.cfg.L2Banks) {
		s.l2Tokens = 4 * int64(s.cfg.L2Banks)
	}
	if n := len(s.l2Queue); n > 0 {
		s.arbLFSR = s.arbLFSR*1103515245 + 12345
		// While cycle < l2StuckUntil the walk is skipped: a previous scan
		// NACKed every queued segment and nothing has been enqueued since, so
		// this cycle's scan would charge the identical retry set — still in
		// l2Nacks — and service nothing. (The LFSR above still advances once
		// per non-empty-queue cycle, exactly as the walk would.)
		if cycle >= s.l2StuckUntil {
			clear(s.l2Nacks)
			start := int(s.arbLFSR>>16) % n
			scanned := 0
			served := false
			minBusy := int64(math.MaxInt64)
			for i := start; scanned < len(s.l2Queue) && s.l2Tokens > 0; scanned++ {
				if i >= len(s.l2Queue) {
					i = 0
				}
				e := &s.l2Queue[i]
				cost := int64(1)
				if e.atomic {
					if e.busyUntil <= cycle {
						e.busyUntil = s.atomBusy[e.line]
					}
					if e.busyUntil > cycle {
						s.l2Nacks[e.sm]++
						if e.busyUntil < minBusy {
							minBusy = e.busyUntil
						}
						i++ // line's atomic slot occupied; leave queued
						continue
					}
					if s.inj != nil && s.inj.forceAtomRetry() {
						// Injected retry storm: NACK the service attempt exactly
						// like a busy atomic slot would.
						s.l2Nacks[e.sm]++
						i++
						continue
					}
					cost = s.cfg.AtomCost
					s.atomBusy[e.line] = cycle + s.cfg.AtomLat
				}
				seg := e.seg
				s.l2Queue = slices.Delete(s.l2Queue, i, i+1) // zeroes the vacated tail: the segment is not pinned
				s.l2Tokens -= cost
				s.serviceL2(seg)
				served = true
			}
			// A walk that covered the whole queue and served nothing took the
			// busy-NACK path on every entry (non-atomics and free-line atomics
			// are always serviced): the scan is a pure function of the queue
			// and atomBusy until minBusy, and l2Nacks is its record. A walk cut
			// short by token debt (AtomCost > L2Banks) is not — tokens refill
			// with time — nor is one under fault injection, whose forced NACKs
			// draw from the RNG stream every walk.
			if !served && scanned == len(s.l2Queue) && s.inj == nil {
				s.l2StuckUntil = minBusy
			}
		}
		for sm, k := range s.l2Nacks {
			if k != 0 {
				s.ports[sm].stats.AtomRetries += k
			}
		}
	}
	// --- end of step 3 ---

	for _, p := range s.ports {
		p.inject()
	}
	s.harvest()
}

// harvest is the reference pushL2: it moves what inject queued this cycle,
// in arrival order, onto the flat queue, and a push invalidates the
// stuck-scan cache.
func (s *refSystem) harvest() {
	q := &s.l2q
	if q.n == 0 {
		return
	}
	for _, e := range q.ent[:q.tail] {
		s.l2Queue = append(s.l2Queue, refEntry{
			seg: e.seg, line: e.seg.line, sm: int32(e.seg.req.SM), atomic: e.seg.req.Op.IsAtomic(),
		})
	}
	s.l2StuckUntil = 0
	s.l2q = newL2Queue(len(s.ports))
}

// diffCase is one machine and traffic shape of the differential matrix.
type diffCase struct {
	sms, banks        int
	atomCost, atomLat int64
	lines             int
	faults, ff        bool
}

func (c diffCase) String() string {
	return fmt.Sprintf("sms=%d/banks=%d/cost=%d/lat=%d/lines=%d/faults=%v/ff=%v",
		c.sms, c.banks, c.atomCost, c.atomLat, c.lines, c.faults, c.ff)
}

// diffOp is one request of the seeded traffic, enqueued on both systems.
type diffOp struct {
	cycle    int64
	sm, slot int
	op       isa.Op
	vol      bool
	addrs    []uint32
	v1, v2   uint32
}

// diffTraffic generates bursts and lulls: a burst enqueues on most cycles,
// so atomics pile up behind a busy line (past the queue's first 64 slots,
// with serviced plain accesses leaving holes for compact to close); a
// lull lets the pile drain through all-blocked spans, which is where the
// event-driven clock jumps.
func diffTraffic(c diffCase, seed uint64, cycles int64) []diffOp {
	rng := seed*0x9e3779b97f4a7c15 + 1
	next := func(n int) int {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return int((rng * 0x2545f4914f6cdd1d) >> 33 % uint64(n))
	}
	ops := []isa.Op{isa.OpAtomCAS, isa.OpAtomCAS, isa.OpAtomCAS, isa.OpAtomExch, isa.OpAtomAdd, isa.OpSt, isa.OpSt, isa.OpLd, isa.OpLd}
	var out []diffOp
	for cycle := int64(0); cycle < cycles; {
		burst := int64(20 + next(150))
		for end := cycle + burst; cycle < end; cycle++ {
			for n := next(c.sms + 1); n > 0; n-- {
				op := diffOp{cycle: cycle, sm: next(c.sms), slot: next(8), op: ops[next(len(ops))],
					v1: uint32(next(3)), v2: uint32(next(3))}
				op.vol = op.op == isa.OpLd && next(2) == 0
				for lanes := 1 + next(3); lanes > 0; lanes-- {
					op.addrs = append(op.addrs, uint32(next(c.lines)*isa.LineWords+next(2)))
				}
				out = append(out, op)
			}
		}
		cycle += int64(next(400))
	}
	return out
}

// diffSide is one of the two systems under the same traffic.
type diffSide struct {
	sys      *System
	now      int64
	inFlight int
	done     []diffDone
}

// diffDone is one line of the completion log: which request, when, and the
// sum of the values it returned.
type diffDone struct {
	id     int
	cycle  int64
	result uint32
}

// enqueue issues the request unless the port's LSQ or the in-flight cap
// (which keeps a one-line storm's drain short) refuses it — decisions both
// sides make alike for as long as they agree.
func (d *diffSide) enqueue(id int, op diffOp) {
	r := &Request{SM: op.sm, WarpSlot: op.slot, Op: op.op, Vol: op.vol, Owner: id}
	for lane, addr := range op.addrs {
		r.Accesses = append(r.Accesses, Access{Lane: lane, Addr: addr, V1: op.v1, V2: op.v2, GTID: int32(id)})
	}
	r.Done = func(r *Request) {
		d.inFlight--
		log := diffDone{id: id, cycle: d.now}
		for _, a := range r.Accesses {
			log.result = log.result*31 + a.Result
		}
		d.done = append(d.done, log)
	}
	if p := d.sys.Port(op.sm); d.inFlight < 160 && p.CanAccept(Coalesce(r.Accesses)) {
		d.inFlight++
		p.Enqueue(r)
	}
}

// queuedID names a queued segment: its request and its line.
func queuedID(seg *segment) int64 { return int64(seg.req.Owner.(int))<<32 | int64(seg.line) }

// diffCoverage says what a case exercised beyond the plain walk.
type diffCoverage struct{ jumps, compactions, maxQueue int }

func runDiffCase(t *testing.T, c diffCase, seed uint64) (cov diffCoverage) {
	const cycles = 1200
	cfg := testMemCfg()
	cfg.L2Banks, cfg.AtomCost, cfg.AtomLat = c.banks, c.atomCost, c.atomLat
	mk := func() *System {
		s := NewSystem(cfg, c.sms, 8, c.lines*isa.LineWords)
		if c.faults {
			f := DefaultFaults(seed).Scale(4)
			f.AtomRetryBurst = 3
			s.InjectFaults(f)
		}
		return s
	}
	got, want := &diffSide{sys: mk()}, &diffSide{sys: mk()}
	ref := newRefSystem(want.sys)
	traffic := diffTraffic(c, seed, cycles)

	var gotQ, wantQ []int64
	checked := 0 // completions compared so far
	compare := func(cycle int64) {
		t.Helper()
		s, r := got.sys, want.sys
		if s.l2Tokens != r.l2Tokens || s.arbLFSR != r.arbLFSR {
			t.Fatalf("cycle %d: tokens %d, LFSR %#x; reference %d, %#x", cycle, s.l2Tokens, s.arbLFSR, r.l2Tokens, r.arbLFSR)
		}
		if c.faults && *s.inj != *r.inj {
			t.Fatalf("cycle %d: injector %+v, reference %+v", cycle, *s.inj, *r.inj)
		}
		for sm := 0; sm < c.sms; sm++ {
			if *s.Stats(sm) != *r.Stats(sm) {
				t.Fatalf("cycle %d: sm%d counters %+v, reference %+v", cycle, sm, *s.Stats(sm), *r.Stats(sm))
			}
		}
		if !slices.Equal(got.done[checked:], want.done[checked:]) {
			t.Fatalf("cycle %d: completions diverge\n got %v\nwant %v", cycle, got.done[checked:], want.done[checked:])
		}
		checked = len(got.done)
		gotQ, wantQ = gotQ[:0], wantQ[:0]
		for _, e := range s.l2q.ent[:s.l2q.tail] {
			if e.seg != nil {
				gotQ = append(gotQ, queuedID(e.seg))
			}
		}
		for _, e := range ref.l2Queue {
			wantQ = append(wantQ, queuedID(e.seg))
		}
		if !slices.Equal(gotQ, wantQ) {
			t.Fatalf("cycle %d: queue diverges (request<<32|line)\n got %v\nwant %v", cycle, gotQ, wantQ)
		}
		if bad := s.Audit(); bad != nil {
			t.Fatalf("cycle %d: %v", cycle, bad)
		}
	}

	// The indexed side runs on the engine's clock: after a Tick that leaves
	// it Idle it jumps to the next event or the next enqueue, crediting the
	// skipped cycles through FastForward, while the reference ticks through
	// every cycle. The two are compared whenever both stand at the end of
	// the same cycle.
	resume := int64(0) // first cycle the indexed side ticks again
	next := 0
	for cycle := int64(0); cycle < cycles || !want.sys.Quiescent() || len(ref.l2Queue) > 0; cycle++ {
		if cycle > 20*cycles {
			t.Fatalf("no drain by cycle %d", cycle)
		}
		got.now, want.now = cycle, cycle
		for ; next < len(traffic) && traffic[next].cycle == cycle; next++ {
			got.enqueue(next, traffic[next])
			want.enqueue(next, traffic[next])
		}
		ref.tick(cycle)
		if cycle >= resume {
			s := got.sys
			q := &s.l2q
			oldest := q.selectLive(0) // meaningless on an empty queue, and then unused
			seg := q.ent[oldest].seg
			s.Tick(cycle)
			cov.maxQueue = max(cov.maxQueue, q.n)
			if oldest > 0 && seg != nil && q.ent[0].seg == seg {
				cov.compactions++ // only compact moves an entry
			}
			if c.ff && s.Idle() && !s.Quiescent() {
				wake := int64(math.MaxInt64)
				if at, ok := s.NextEventAt(); ok {
					wake = at
				}
				if next < len(traffic) {
					wake = min(wake, traffic[next].cycle)
				}
				if wake != math.MaxInt64 && wake > cycle+1 {
					s.FastForward(wake - cycle - 1)
					resume = wake
					cov.jumps++
				}
			}
		}
		if cycle >= resume-1 {
			compare(cycle)
		}
	}
	if !got.sys.Quiescent() || !slices.Equal(got.sys.words, want.sys.words) {
		t.Fatalf("final state: quiescent=%v, memory equal=%v", got.sys.Quiescent(), slices.Equal(got.sys.words, want.sys.words))
	}
	if len(got.done) == 0 {
		t.Fatal("no request completed")
	}
	return cov
}

// TestL2QueueDifferential holds the indexed queue to the reference walk
// over machines from one SM and one bank to Fermi's and Pascal's shapes,
// atomics cheaper and dearer than a cycle's refill, one contended line to
// two hundred, with and without injected NACK storms, on the per-cycle
// clock and on the event-driven one.
//
// The cases run in parallel; the coverage floor is checked in a cleanup,
// which runs after every parallel subtest has finished.
func TestL2QueueDifferential(t *testing.T) {
	var (
		mu    sync.Mutex
		total diffCoverage
	)
	t.Cleanup(func() {
		t.Logf("%d clock jumps, %d compactions, longest queue %d", total.jumps, total.compactions, total.maxQueue)
		if total.jumps == 0 || total.compactions == 0 || total.maxQueue <= 64 {
			t.Error("the matrix no longer reaches FastForward, compact or a queue past its first 64 slots")
		}
	})
	seed := uint64(0)
	for _, sms := range []int{1, 3, 15} {
		for _, banks := range []int{1, 6, 11} {
			for _, cost := range []int64{1, 8} {
				for _, lat := range []int64{1, 8, 32} {
					for _, lines := range []int{1, 4, 200} {
						for _, faults := range []bool{false, true} {
							for _, ff := range []bool{false, true} {
								seed++
								c, seed := diffCase{sms, banks, cost, lat, lines, faults, ff}, seed
								t.Run(c.String(), func(t *testing.T) {
									t.Parallel()
									cov := runDiffCase(t, c, seed)
									mu.Lock()
									defer mu.Unlock()
									total.jumps += cov.jumps
									total.compactions += cov.compactions
									total.maxQueue = max(total.maxQueue, cov.maxQueue)
								})
							}
						}
					}
				}
			}
		}
	}
}

// TestArbSkipMatchesStepping: the closed-form LFSR advance FastForward
// uses equals that many single steps.
func TestArbSkipMatchesStepping(t *testing.T) {
	x := uint32(0xdeadbeef)
	stepped := x
	for n := int64(0); n < 300; n++ {
		if got := arbSkip(x, n); got != stepped {
			t.Fatalf("arbSkip(%d) = %#x, %d single steps give %#x", n, got, n, stepped)
		}
		stepped = stepped*arbMul + arbInc
	}
}

// TestAuditDetectsIndexDrift corrupts each piece of the memory system's
// indexes in turn — state their entries alone determine, which push,
// serve, wakeLines, compact, the wheel and inject maintain incrementally —
// and requires Audit to name it.
func TestAuditDetectsIndexDrift(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(s *System, q *l2Queue)
	}{
		{"parked atomic marked serviceable", "l2.index-drift", func(s *System, q *l2Queue) { q.ready[0] |= 1 << 2; q.nReady++ }},
		{"plain access not serviceable", "l2.index-drift", func(s *System, q *l2Queue) { q.ready[0] &^= 1 << 3; q.nReady-- }},
		{"live bit without an entry", "l2.index-drift", func(s *System, q *l2Queue) { q.live[0] |= 1 << 40 }},
		{"population miscounted", "l2.index-drift", func(s *System, q *l2Queue) { q.n++ }},
		{"serviceable count miscounted", "l2.index-drift", func(s *System, q *l2Queue) { q.nReady++ }},
		{"per-SM population miscounted", "l2.index-drift", func(s *System, q *l2Queue) { q.pop[0]--; q.pop[1]++ }},
		{"waiter dropped from its line's set", "l2.index-drift", func(s *System, q *l2Queue) { q.ent[2].rec.slots[0] &^= 1 << 2 }},
		{"waiter count off", "l2.index-drift", func(s *System, q *l2Queue) { q.ent[2].rec.n++ }},
		{"busy line missing from the wake list", "l2.index-drift", func(s *System, q *l2Queue) { q.wake.pop() }},
		{"wake list out of expiry order", "l2.index-drift", func(s *System, q *l2Queue) { q.wake.items()[0].busyUntil += 1000 }},
		{"entry on another line's record", "l2.index-drift", func(s *System, q *l2Queue) { q.ent[2].rec = q.ent[4].rec }},
		{"wheel count off", "wheel.index-drift", func(s *System, q *l2Queue) { s.events.n++ }},
		{"stale bitmap bit", "wheel.index-drift", func(s *System, q *l2Queue) { s.events.occ[0] |= 1 << 40 }},
		{"nextAt off by one", "wheel.index-drift", func(s *System, q *l2Queue) { s.events.nextAt++ }},
		{"completion beyond the horizon", "wheel.index-drift", func(s *System, q *l2Queue) {
			s.schedule(s.events.base+int64(len(s.events.slots))+3, evFinish, s.ports[1].newSegment(&Request{SM: 1}, 30))
		}},
		{"completion also on an LSQ", "segment.aliased", func(s *System, q *l2Queue) { s.ports[1].lsq.push(s.events.slots[3].head) }},
		{"merged miss also on the L2 queue", "segment.aliased", func(s *System, q *l2Queue) { q.push(s.ports[0].mshr[0].waiters.head, s.cycle) }},
		{"parked lane its segment does not count", "segment for sm1", func(s *System, q *l2Queue) {
			var f fifo[lockWaiter]
			f.push(lockWaiter{seg: s.ports[1].newSegment(&Request{SM: 1}, 40)})
			s.lockQueues[7] = f
		}},
		{"empty lock queue", "empty lock queue", func(s *System, q *l2Queue) { s.lockQueues[9] = fifo[lockWaiter]{} }},
		{"MSHR line held twice", "mshr", func(s *System, q *l2Queue) { s.ports[0].mshr = append(s.ports[0].mshr, mshrEntry{line: 20}) }},
		{"MSHRs beyond L1MSHRs", "mshr", func(s *System, q *l2Queue) {
			for line := uint32(100); len(s.ports[0].mshr) <= s.cfg.L1MSHRs; line++ {
				s.ports[0].mshr = append(s.ports[0].mshr, mshrEntry{line: line})
			}
		}},
	}
	for _, tc := range cases {
		// Two lines, each serviced once and so busy, with atomics parked behind
		// the service (slots 0, 2 on line 0; 1, 4 on line 1) and a store (3).
		s := NewSystem(testMemCfg(), 2, 8, 1024)
		q := &s.l2q
		push := func(sm int, op isa.Op, line uint32) {
			q.push(s.ports[sm].newSegment(&Request{SM: sm, Op: op}, line), s.cycle)
		}
		push(0, isa.OpAtomAdd, 0)
		push(1, isa.OpAtomAdd, 1)
		q.serve(0, 10)
		q.serve(1, 12)
		for slot, line := range []uint32{0, 1, 0, 16, 1} {
			op := isa.OpAtomAdd
			if slot == 3 {
				op = isa.OpSt
			}
			push(slot%2, op, line)
		}
		// A miss on line 20 (queued at L2, slot 5) with a second load merged
		// on its MSHR, a load to line 21 still on the LSQ, and completions
		// due at cycles 3 (two of them) and 9.
		p := s.ports[0]
		for _, line := range []uint32{20, 20, 21} {
			p.Enqueue(&Request{SM: 0, Op: isa.OpLd, Accesses: []Access{{Addr: line * isa.LineWords}}})
		}
		p.inject()
		p.inject()
		for _, at := range []int64{3, 3, 9} {
			s.schedule(at, evFinish, s.ports[1].newSegment(&Request{SM: 1, Op: isa.OpSt}, 30))
		}
		if bad := s.Audit(); bad != nil {
			t.Fatalf("clean state reports %v", bad)
		}
		tc.corrupt(s, q)
		bad := s.Audit()
		if !slices.ContainsFunc(bad, func(line string) bool { return strings.HasPrefix(line, tc.want) }) {
			t.Errorf("%s: Audit reports %v, want %s", tc.name, bad, tc.want)
		}
	}
}

// The reference completion queue: the binary min-heap ordered by (at, seq)
// that Tick's step 1 popped before the calendar wheel (wheel.go) replaced
// it, verbatim. TestEventWheelDifferential holds the wheel to it.

// event is a scheduled completion, ordered by (at, seq).
type event struct {
	at   int64
	seq  int64
	kind evKind
	seg  *segment
}

// eventHeap is a hand-rolled binary min-heap. container/heap is avoided
// because its any-typed interface boxes every event on Push.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// popRoot removes the minimum event. The caller must have checked len>0.
func (h *eventHeap) popRoot() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the segment pointer
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

func (h eventHeap) Peek() (int64, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// TestEventWheelDifferential schedules one seeded stream of completions on
// a System's wheel, through schedule and so through the fault injector's
// delays, and on the reference heap, and requires the two to agree after
// every fired cycle on what they dispatched, in what order, and on the
// next due cycle. The stream piles many completions onto the same cycle
// (the configured latencies, scheduled from nearby cycles), runs for
// dozens of turns of the wheel, and — on the jumping clock — moves from
// each fired cycle straight to NextEventAt, or to a cycle short of it.
func TestEventWheelDifferential(t *testing.T) {
	for _, cfg := range []config.Memory{testMemCfg(), config.GTX480().Mem} {
		for _, faults := range []bool{false, true} {
			for _, jump := range []bool{false, true} {
				for seed := uint64(1); seed <= 4; seed++ {
					t.Run(fmt.Sprintf("dram=%d/faults=%v/jump=%v/seed=%d", cfg.DRAMLat, faults, jump, seed), func(t *testing.T) {
						runWheelDiff(t, cfg, seed, faults, jump)
					})
				}
			}
		}
	}
}

func runWheelDiff(t *testing.T, cfg config.Memory, seed uint64, faults, jump bool) {
	s := NewSystem(cfg, 1, 1, 64)
	if faults {
		s.InjectFaults(DefaultFaults(seed).Scale(10))
	}
	rng := seed*0x9e3779b97f4a7c15 + 1
	next := func(n int64) int64 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return int64((rng * 0x2545f4914f6cdd1d) >> 33 % uint64(n))
	}
	lats := []int64{cfg.L1HitLat, cfg.L2Lat, cfg.DRAMLat, cfg.AtomLat, 1}
	maxLat := max(cfg.L1HitLat, cfg.L2Lat, cfg.DRAMLat, cfg.AtomLat)
	size := int64(len(s.events.slots))
	var ref eventHeap
	var seq int64
	var free []*segment
	var got, want []*segment
	scheduled, ties := 0, 0
	for cycle := int64(0); cycle < 40*size; {
		got, want = got[:0], want[:0]
		for seg := s.events.due(cycle); seg != nil; seg = s.events.due(cycle) {
			got = append(got, seg)
		}
		for at, ok := ref.Peek(); ok && at <= cycle; at, ok = ref.Peek() {
			e := ref.popRoot()
			if e.seg.at != e.at || e.seg.kind != e.kind {
				t.Fatalf("cycle %d: completion %d (due %d, kind %d) rescheduled as due %d, kind %d",
					cycle, e.seg.line, e.at, e.kind, e.seg.at, e.seg.kind)
			}
			want = append(want, e.seg)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d: the wheel dispatched %v, the heap %v", cycle, segIDs(got), segIDs(want))
		}
		if len(want) > 1 && want[0].at == want[1].at {
			ties++
		}
		free = append(free, got...)
		s.cycle = cycle
		for k := next(4) + 4*next(2)*next(3); k > 0; k-- {
			lat := lats[next(int64(len(lats)))]
			if next(2) == 0 {
				lat = 1 + next(maxLat)
			}
			var seg *segment
			if n := len(free); n > 0 {
				seg, free = free[n-1], free[:n-1]
			} else {
				seg = &segment{line: uint32(scheduled)}
			}
			s.schedule(cycle+lat, evKind(next(5)), seg)
			seq++
			ref.push(event{at: seg.at, seq: seq, kind: seg.kind, seg: seg})
			scheduled++
		}
		wantAt, ok := ref.Peek()
		if !ok {
			wantAt = math.MaxInt64
		}
		if at, _ := s.NextEventAt(); at != wantAt || s.events.n != len(ref) {
			t.Fatalf("cycle %d: %d queued, next due %d; heap %d, %d", cycle, s.events.n, at, len(ref), wantAt)
		}
		cycle++
		if jump && wantAt != math.MaxInt64 && wantAt > cycle {
			cycle += next(wantAt - cycle + 1) // at most to NextEventAt
		}
	}
	if scheduled < int(10*size) || ties < 100 {
		t.Errorf("only %d completions scheduled, %d cycles firing tied completions", scheduled, ties)
	}
}

func segIDs(segs []*segment) []uint32 {
	ids := make([]uint32, len(segs))
	for i, seg := range segs {
		ids[i] = seg.line
	}
	return ids
}

// Package mem models the GPU memory hierarchy the paper's effects depend
// on: per-SM L1 data caches (write-evict, no write-allocate), a shared
// banked L2, a DRAM bandwidth/latency model, a warp-level coalescer
// producing 128-byte segment transactions, and an L2 atomic unit that
// serializes read-modify-write operations per cache line — the reason
// failed lock-acquire retries consume memory bandwidth (paper §II).
//
// The package is also the functional memory: transactions commit their
// loads, stores and atomics against the word store at service time, so
// inter-warp interleaving of atomics follows simulated time. Lock
// ownership is tracked for annotated acquire/release operations to
// classify failed acquires as intra- vs inter-warp (Fig. 2).
package mem

import (
	"math"
	"math/bits"

	"warpsched/internal/config"
	"warpsched/internal/isa"
	"warpsched/internal/metrics"
	"warpsched/internal/stats"
)

// Access is one lane's memory access within a warp instruction.
type Access struct {
	Lane int
	Addr uint32
	// V1 is the store value / atomic operand (CAS compare).
	V1 uint32
	// V2 is the CAS swap value.
	V2 uint32
	// Result receives the loaded / atomic-returned value.
	Result uint32
	// GTID is the lane's global thread id (for lock-owner tracking).
	GTID int32
}

// Request is one warp memory instruction in flight.
type Request struct {
	SM       int
	WarpSlot int
	Op       isa.Op
	Ann      isa.Ann
	// Vol marks a volatile (L1-bypassing) load.
	Vol      bool
	Accesses []Access
	// Done is invoked exactly once when every segment has been serviced;
	// Accesses[i].Result fields are valid by then. The memory system never
	// touches the request after Done returns, so pooling callers may
	// recycle it there.
	Done func(*Request)
	// Dst, WritesReg and Owner carry the issuing core's register-writeback
	// state. They are opaque to the memory system; they exist so a single
	// long-lived Done function can service every request without a
	// per-request closure.
	Dst       isa.Reg
	WritesReg bool
	Owner     any

	remaining int
	// Queue-lock bookkeeping (QueueLocks mode): a request either acquires
	// locks (and never parks) or parks exactly one lane (and never
	// holds) — any other combination could block a warp while it holds a
	// lock and deadlock the queues, the races HQL papers over with NACKs.
	qlAcquired bool
	qlParked   bool
}

// segment is one coalesced 128-byte transaction.
type segment struct {
	req  *Request
	line uint32
	// waiters counts the segment's lock-queue entries during one Audit.
	waiters int32
	lanes   []int // indexes into req.Accesses
	// parked counts lanes waiting in a lock queue (QueueLocks mode);
	// the segment completes only when every parked lane is granted.
	parked int
	// at and kind are the segment's one pending completion; next links it
	// behind the one before it in its wheel slot or, while it waits merged
	// on an MSHR (with no completion pending), behind the previous merge.
	at   int64
	kind evKind
	// queue and audit are Audit's marks (inspect.go): the queue the
	// segment was last seen on, in the Audit pass stamped audit.
	queue queue
	audit uint32
	next  *segment
}

// evKind tags a scheduled completion. A completion is a kind on its
// segment instead of a closure, so scheduling is allocation-free on the
// simulated hot path.
type evKind uint8

const (
	evFinish   evKind = iota // finish(seg)
	evL1Hit                  // applyLoads(seg); finish(seg)
	evDRAMDone               // dramDone(seg)
	evLoadFill               // loadFilled(seg)
	evVolFill                // volFilled(seg)
)

// System is the shared memory system: functional store, L2, DRAM, atomic
// unit, and one port per SM.
type System struct {
	cfg   config.Memory
	words []uint32
	ports []*Port

	l2        *cache
	l2q       l2Queue
	dramQueue fifo[*segment]
	events    wheel
	cycle     int64

	// arbLFSR drives the rotating L2 service arbitration (see scanL2).
	arbLFSR uint32
	// l2Tokens throttles L2 bank throughput: a plain access costs one
	// token, an atomic costs AtomCost tokens (the read-modify-write
	// occupies the bank's atomic ALU), so spin-loop CAS spam steals
	// bandwidth from all other traffic — the paper's §II observation.
	l2Tokens int64

	// lockOwner maps a lock word address to the global thread id of the
	// current holder (annotated acquires/releases only).
	lockOwner map[uint32]int32
	// lockQueues holds parked acquires per lock word (QueueLocks mode).
	lockQueues map[uint32]fifo[lockWaiter]
	// warpHolds counts tracked locks held per global warp id: a warp
	// that holds a lock is never parked (it gets a NACK-style failure
	// and retries), because parking blocks the whole warp and a blocked
	// holder would deadlock the queue — the race HQL resolves with
	// negative acknowledgements.
	warpHolds map[int32]int

	// inj, when non-nil, perturbs completion timing and the atomic unit
	// (see faultinject.go). Nil on every normal run: the hot path pays one
	// pointer test per scheduled event.
	inj *faultInjector
	// curSeg is the segment whose accesses are being applied, so an
	// address fault can name the SM, warp and operation it was servicing.
	curSeg *segment
	// audits stamps Audit's passes over segments, three per call, so it
	// needs no per-call set.
	audits uint32
}

// lockWaiter is one parked lock acquire: the segment and the index of
// the waiting lane within its request.
type lockWaiter struct {
	seg *segment
	li  int
}

// Port is an SM's private memory-side interface: L1 cache, load/store
// queue and MSHRs.
type Port struct {
	sys *System
	sm  int
	l1  *cache

	lsq fifo[*segment] // segments awaiting injection
	// mshr holds the outstanding L1 misses, at most L1MSHRs of them.
	mshr []mshrEntry
	// outstanding counts in-flight memory instructions per warp slot
	// (for membar draining and per-warp issue limits).
	outstanding []int
	// segScratch is Enqueue's coalescing scratch (reused per call).
	segScratch []*segment
	// segFree pools retired segments (and their lane-index backing
	// arrays): the steady-state simulated cycle allocates nothing. The
	// pool is per-port rather than system-wide so Enqueue — which runs in
	// the engine's SM phase — touches only this SM's state; finish returns
	// segments here from the memory phase.
	segFree []*segment

	stats *stats.Mem
	// sync receives lock-acquire outcome classifications (Fig. 2); set
	// via AttachSync.
	sync *stats.SyncEvents
}

// mshrEntry is an outstanding L1 miss and the loads merged onto it since.
type mshrEntry struct {
	line    uint32
	waiters chain
}

// AttachSync points SM sm's port at the engine's synchronization-event
// counters so the atomic unit can classify acquire outcomes at service
// time (when the lock-owner table is current).
func (s *System) AttachSync(sm int, ev *stats.SyncEvents) { s.ports[sm].sync = ev }

// NewSystem creates the memory system with the given word capacity.
func NewSystem(cfg config.Memory, numSMs, warpsPerSM int, sizeWords int) *System {
	s := &System{
		cfg:        cfg,
		words:      make([]uint32, sizeWords),
		l2:         newCache(cfg.L2KB, cfg.L2Assoc),
		l2q:        newL2Queue(numSMs),
		lockOwner:  make(map[uint32]int32),
		lockQueues: make(map[uint32]fifo[lockWaiter]),
		warpHolds:  make(map[int32]int),
	}
	s.events = newWheel(s.horizon())
	s.ports = make([]*Port, numSMs)
	for i := range s.ports {
		s.ports[i] = &Port{
			sys:         s,
			sm:          i,
			l1:          newCache(cfg.L1KB, cfg.L1Assoc),
			mshr:        make([]mshrEntry, 0, cfg.L1MSHRs),
			outstanding: make([]int, warpsPerSM),
			stats:       &stats.Mem{},
		}
	}
	return s
}

// Port returns SM sm's port.
func (s *System) Port(sm int) *Port { return s.ports[sm] }

// Size returns the functional store capacity in words.
func (s *System) Size() int { return len(s.words) }

// Read returns the word at addr (functional access, no timing).
func (s *System) Read(addr uint32) uint32 {
	s.check(addr)
	return s.words[addr]
}

// Write sets the word at addr (functional access, no timing).
func (s *System) Write(addr uint32, v uint32) {
	s.check(addr)
	s.words[addr] = v
}

// Words exposes the backing store for bulk kernel setup/verification.
func (s *System) Words() []uint32 { return s.words }

// check bounds-validates a functional access. An out-of-range address
// panics with a structured *AddrFault (carrying the servicing SM, warp
// and op when inside a transaction) that the engine recovers into a
// returned error — see sim.Engine.Run.
func (s *System) check(addr uint32) {
	if int(addr) >= len(s.words) {
		f := &AddrFault{Addr: addr, Size: len(s.words)}
		if seg := s.curSeg; seg != nil && seg.req != nil {
			f.HasCtx = true
			f.SM, f.WarpSlot, f.Op = seg.req.SM, seg.req.WarpSlot, seg.req.Op
		}
		panic(f)
	}
}

// horizon is how far past its Tick a completion can fall due at most.
func (s *System) horizon() int64 {
	h := max(s.cfg.L1HitLat, s.cfg.L2Lat, s.cfg.DRAMLat, s.cfg.AtomLat)
	if s.inj != nil {
		h += s.inj.cfg.LatencySpike + s.inj.cfg.ReorderJitter
	}
	return h
}

func (s *System) schedule(at int64, kind evKind, seg *segment) {
	if s.inj != nil {
		at += s.inj.delay()
	}
	seg.at, seg.kind = at, kind
	s.events.push(seg)
}

// fireDue dispatches every completion due by cycle, earliest first.
func (s *System) fireDue(cycle int64) {
	for seg := s.events.due(cycle); seg != nil; seg = s.events.due(cycle) {
		s.dispatch(seg)
	}
}

func (s *System) dispatch(seg *segment) {
	switch seg.kind {
	case evFinish:
		s.finish(seg)
	case evL1Hit:
		s.applyLoads(seg)
		s.finish(seg)
	case evDRAMDone:
		s.dramDone(seg)
	case evLoadFill:
		s.loadFilled(seg)
	case evVolFill:
		s.volFilled(seg)
	}
}

// newSegment takes a segment from the port's pool (or allocates one) and
// initializes it for the request.
func (p *Port) newSegment(r *Request, line uint32) *segment {
	if n := len(p.segFree); n > 0 {
		seg := p.segFree[n-1]
		p.segFree[n-1] = nil
		p.segFree = p.segFree[:n-1]
		seg.req, seg.line, seg.lanes, seg.parked = r, line, seg.lanes[:0], 0
		return seg
	}
	return &segment{req: r, line: line, lanes: make([]int, 0, 8)}
}

// Stats returns the per-SM memory counters for SM sm.
func (s *System) Stats(sm int) *stats.Mem { return s.ports[sm].stats }

// RegisterMetrics registers SM sm's memory counters under prefix (e.g.
// "sm0.mem."). The counters are views of the live per-port stats.Mem
// fields, so registration adds no hot-path cost.
func (s *System) RegisterMetrics(r *metrics.Registry, sm int, prefix string) {
	st := s.ports[sm].stats
	st.EachCounter(func(name string, v *int64) { r.Int64(prefix+name, v) })
	r.Rate(prefix+"l1_hit_rate", &st.L1Hits, &st.L1Accesses)
	r.Rate(prefix+"l2_hit_rate", &st.L2Hits, &st.L2Accesses)
}

// LockOwner returns the tracked holder of the lock word at addr, or -1.
func (s *System) LockOwner(addr uint32) int32 {
	if o, ok := s.lockOwner[addr]; ok {
		return o
	}
	return -1
}

// --- port-side API used by the SM pipeline ---

// CanAccept reports whether the port can take another warp memory
// instruction (LSQ space for its segments).
func (p *Port) CanAccept(nSegments int) bool {
	return p.lsq.len()+nSegments <= p.sys.cfg.LSQDepth
}

// Outstanding returns in-flight memory instructions for a warp slot.
func (p *Port) Outstanding(warpSlot int) int { return p.outstanding[warpSlot] }

// LSQEmpty reports whether no segment awaits injection. While true and
// the SM issues nothing, CanAccept cannot flip, so port-side warp
// readiness can only change through a completion callback — the property
// the engine's SM dormancy optimization rests on.
func (p *Port) LSQEmpty() bool { return p.lsq.len() == 0 }

// Coalesce groups the request's lane accesses into 128-byte segments,
// returning the segment count without enqueuing (used for LSQ admission
// checks).
func Coalesce(accesses []Access) int {
	// A warp has at most 32 lanes, so a linear scan over the distinct
	// lines beats a map (and allocates nothing).
	var lines [32]uint32
	n := 0
scan:
	for i := range accesses {
		line := accesses[i].Addr / isa.LineWords
		for _, l := range lines[:n] {
			if l == line {
				continue scan
			}
		}
		lines[n] = line
		n++
	}
	return n
}

// Enqueue accepts a warp memory instruction. The caller must have checked
// CanAccept with the segment count from Coalesce.
func (p *Port) Enqueue(r *Request) {
	if len(r.Accesses) == 0 {
		// Fully predicated-off memory instruction: complete immediately.
		if r.Done != nil {
			r.Done(r)
		}
		return
	}
	// Pooled requests arrive with stale queue-lock state.
	r.qlAcquired, r.qlParked = false, false
	// Coalesce preserving lane order within each segment; first-appearance
	// order across segments. Linear scan: a warp has ≤32 lanes.
	segs := p.segScratch[:0]
	for i := range r.Accesses {
		line := r.Accesses[i].Addr / isa.LineWords
		var seg *segment
		for _, s := range segs {
			if s.line == line {
				seg = s
				break
			}
		}
		if seg == nil {
			seg = p.newSegment(r, line)
			segs = append(segs, seg)
		}
		seg.lanes = append(seg.lanes, i)
	}
	r.remaining = len(segs)
	p.outstanding[r.WarpSlot]++
	for i, seg := range segs {
		p.lsq.push(seg)
		p.stats.Transactions++
		if r.Ann&isa.AnnSync != 0 {
			p.stats.SyncTransactions++
		}
		segs[i] = nil
	}
	p.segScratch = segs[:0]
}

// --- cycle advance ---

// Tick advances the memory system to cycle: completes due events,
// services L2 and DRAM queues, and injects one LSQ segment per SM port.
func (s *System) Tick(cycle int64) {
	s.cycle = cycle
	// 1. Fire due completions.
	s.fireDue(cycle)
	// 2. Service the DRAM queue (bandwidth limited).
	for n := s.cfg.DRAMBw; n > 0 && s.dramQueue.len() > 0; n-- {
		seg := s.dramQueue.pop()
		s.ports[seg.req.SM].stats.DRAMAccesses++
		s.schedule(cycle+s.cfg.DRAMLat, evDRAMDone, seg)
	}
	// 3. Service the L2 queue (banked; atomics serialized per line and
	// charged AtomCost bank tokens).
	s.l2Tokens = s.refilled(1)
	if s.l2q.wake.len() > 0 {
		s.l2q.wakeLines(cycle)
	}
	if s.l2q.n > 0 {
		s.scanL2(cycle)
	}
	// 4. Inject one segment per SM port.
	for _, p := range s.ports {
		p.inject()
	}
}

// refilled returns the L2 token bucket after n more cycles of refill and
// no consumption: L2Banks tokens a cycle, capped at four cycles' worth.
// The cap only binds a bucket that is already positive, so n rounds of
// (add, cap) equal one capped bulk add.
func (s *System) refilled(n int64) int64 {
	banks := int64(s.cfg.L2Banks)
	return min(s.l2Tokens+banks*n, 4*banks)
}

// The arbitration LFSR is a 32-bit linear congruential step.
const (
	arbMul = 1103515245
	arbInc = 12345
)

// arbSkip returns x advanced by n steps of x → x·arbMul + arbInc: the
// n-fold composition of an affine map is affine, built by squaring.
func arbSkip(x uint32, n int64) uint32 {
	mul, inc := uint32(arbMul), uint32(arbInc) // one step, then 2, 4, 8 … steps
	accMul, accInc := uint32(1), uint32(0)
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			accMul, accInc = accMul*mul, accInc*mul+inc
		}
		mul, inc = mul*mul, inc*mul+inc
	}
	return x*accMul + accInc
}

// scanL2 is one cycle of L2 arbitration over a non-empty queue. The walk
// it implements visits queued entries in arrival order, cyclically from a
// start that rotates pseudo-randomly across cycles — a strictly FIFO pick
// would make every transaction's queueing delay identical round after
// round, letting symmetrically conflicting lock retries (nested try-locks
// in ATM/DS) re-collide forever, a determinism artifact real
// interconnect/DRAM arbitration does not have. A visited entry is
// serviced, or — an atomic whose line is busy, or one the fault injector
// NACKs — charged to its SM as a retry and left queued. The walk ends
// when the bucket runs dry, or at the visit bound: entries visited so far
// ≥ entries still queued, so a walk that services k entries stops k short
// of a full circle.
//
// Only serviceable entries are looked at. With p live entries between the
// start and a serviceable entry (the k serviced ones no longer among
// them), the entry's place in the walk is p+k and the bound lets it be
// visited iff p+k < n-k. Everything the walk passed and left queued was
// NACKed; those entries are never visited, only counted afterwards: a
// walk cut short steps back from where it stopped over what it passed, a
// walk that ran its course charges the whole queue and steps back from the
// start over the few entries it did not reach.
func (s *System) scanL2(cycle int64) {
	q := &s.l2q
	n := q.n
	s.arbLFSR = s.arbLFSR*arbMul + arbInc
	if s.l2Tokens <= 0 {
		return // still paying for an atomic dearer than a refill: no visit, no NACK
	}
	if q.nReady == 0 {
		s.chargeRetries(1) // a full circle of busy-line NACKs
		return
	}
	rank := 0
	if n > 1 { // the usual uncontended queue holds one entry: spare it the divide
		rank = int(s.arbLFSR >> 16 % uint32(n))
	}
	start := q.selectLive(rank)
	words := (q.tail + 63) >> 6
	w0, b0 := start>>6, uint(start&63)
	k := 0       // entries serviced
	visited := 0 // walk length once the last serviceable entry was visited
	passed := 0  // live entries between the start and the current word
walk:
	for i := 0; i <= words && q.nReady > 0; i++ {
		// Word w0 comes first for the bits from the start up and last for
		// the bits below it.
		w := w0 + i
		if w >= words {
			w -= words
		}
		mask := ^uint64(0)
		switch i {
		case 0:
			mask <<= b0
		case words:
			mask = 1<<b0 - 1
		}
		// A service clears the ready bits of the line's other waiters, so
		// the set is read again after every visit.
		for todo := mask; q.ready[w]&todo != 0; {
			t := bits.TrailingZeros64(q.ready[w] & todo)
			bit := uint64(1) << t
			todo = mask &^ (bit<<1 - 1)
			p := passed + bits.OnesCount64(q.live[w]&mask&(bit-1))
			if p+2*k >= n {
				break walk
			}
			visited = p + k + 1
			slot := w<<6 | t
			cost := int64(1)
			if q.ent[slot].rec != nil {
				if s.inj != nil && s.inj.forceAtomRetry() {
					continue // injected retry storm: a NACK like a busy line's
				}
				cost = s.cfg.AtomCost
			}
			seg := q.serve(slot, cycle+s.cfg.AtomLat)
			k++
			s.l2Tokens -= cost
			s.serviceL2(seg)
			if s.l2Tokens <= 0 {
				// Cut short: the NACKed entries are the visited-k live ones
				// behind the entry just serviced.
				s.chargeBehind(slot, visited-k, 1)
				return
			}
		}
		passed += bits.OnesCount64(q.live[w] & mask)
	}
	// The walk ran to its bound: it covered n-k entries, or as far as the
	// last serviceable one if that is further, and NACKed all it did not
	// service — every queued entry but the unvisited ones just behind the
	// start.
	visited = max(visited, n-k)
	if visited > k {
		s.chargeRetries(1)
		s.chargeBehind(start, n-visited, -1)
	}
}

// chargeRetries charges every queued entry's SM a retry, scans times over:
// the sum of that many walks that each cover the whole queue and service
// nothing.
func (s *System) chargeRetries(scans int64) {
	for sm, k := range s.l2q.pop {
		if k != 0 {
			s.ports[sm].stats.AtomRetries += k * scans
		}
	}
}

// chargeBehind adds d retries to the SM of each of the count live entries
// that precede slot in cyclic arrival order.
func (s *System) chargeBehind(slot, count int, d int64) {
	q := &s.l2q
	w := slot >> 6
	m := q.live[w] & (1<<uint(slot&63) - 1)
	for ; count > 0; count-- {
		for m == 0 {
			if w--; w < 0 {
				w = len(q.live) - 1
			}
			m = q.live[w]
		}
		t := 63 - bits.LeadingZeros64(m)
		m &^= 1 << t
		s.ports[q.ent[w<<6|t].sm].stats.AtomRetries += d
	}
}

// NextEventAt returns the earliest future cycle at which the memory system
// can change state by itself: the earliest scheduled completion or, with
// segments queued at L2, the end of the next line's busy period. It
// reports false when neither is pending.
func (s *System) NextEventAt() (int64, bool) {
	at := s.events.nextAt
	if s.l2q.n > 0 && s.l2q.wake.len() > 0 {
		at = min(at, s.l2q.wake.items()[0].busyUntil) // the next busy line to free up
	}
	return at, at != math.MaxInt64
}

// Idle reports whether Tick's outcome depends on nothing but time: the
// DRAM queue and every port's LSQ are empty, and no segment queued at L2
// is serviceable — each one is an atomic on a busy line. While idle, a
// Tick that fires no due event and ends no busy period (NextEventAt is
// past it) advances only the three time-driven values FastForward
// settles; MSHR tables, parked lock waiters and the line records are
// passive. So the engine's event-driven clock may skip idle cycles, a
// retry storm's NACK spans included.
func (s *System) Idle() bool {
	if s.l2q.nReady > 0 || s.dramQueue.len() > 0 {
		return false
	}
	for _, p := range s.ports {
		if p.lsq.len() > 0 {
			return false
		}
	}
	return true
}

// FastForward credits delta skipped idle cycles, none of them at or past
// NextEventAt, to the state a per-cycle Tick would have advanced: the L2
// token bucket refills; and if segments are queued at L2 — all of them
// blocked, none can be served, so no token is spent — the arbitration
// LFSR steps once per cycle and every cycle whose bucket is positive
// after its refill is a scan that NACKs the whole queue.
func (s *System) FastForward(delta int64) {
	if s.l2q.n > 0 {
		// A bucket at -t ≤ 0 is still not positive after ⌊t/L2Banks⌋ refills.
		inDebt := min(max(-s.l2Tokens/int64(s.cfg.L2Banks), 0), delta)
		s.chargeRetries(delta - inDebt)
		s.arbLFSR = arbSkip(s.arbLFSR, delta)
	}
	s.l2Tokens = s.refilled(delta)
}

// Quiescent reports whether no transactions are in flight anywhere.
func (s *System) Quiescent() bool {
	if s.events.n > 0 || s.l2q.n > 0 || s.dramQueue.len() > 0 || len(s.lockQueues) > 0 {
		return false
	}
	for _, p := range s.ports {
		if p.lsq.len() > 0 || len(p.mshr) > 0 {
			return false
		}
	}
	return true
}

func (p *Port) inject() {
	if p.lsq.len() == 0 {
		return
	}
	seg := p.lsq.items()[0]
	s := p.sys
	switch {
	case seg.req.Op.IsAtomic():
		// Atomics bypass (and invalidate) L1 and go to the L2 atomic unit.
		p.l1.Invalidate(seg.line)
		p.stats.AtomicOps++
		s.l2q.push(seg, s.cycle)
	case seg.req.Op == isa.OpSt:
		// Write-through, no write-allocate: evict from L1, send to L2.
		p.l1.Invalidate(seg.line)
		p.stats.L1Accesses++
		s.l2q.push(seg, s.cycle)
	case seg.req.Vol:
		// Volatile load: bypass and invalidate the non-coherent L1.
		p.l1.Invalidate(seg.line)
		s.l2q.push(seg, s.cycle)
	default: // load
		p.stats.L1Accesses++
		if p.l1.Lookup(seg.line) {
			p.stats.L1Hits++
			s.schedule(s.cycle+s.cfg.L1HitLat, evL1Hit, seg)
		} else if i := p.findMSHR(seg.line); i >= 0 {
			// Merge with the outstanding miss.
			p.stats.MSHRMerges++
			p.mshr[i].waiters.push(seg)
		} else if len(p.mshr) >= s.cfg.L1MSHRs {
			p.stats.MSHRStalls++
			return // no MSHR free: stall injection this cycle
		} else {
			p.mshr = append(p.mshr, mshrEntry{line: seg.line})
			s.l2q.push(seg, s.cycle)
		}
	}
	p.lsq.pop()
}

// findMSHR returns the index of line's outstanding miss, or -1. The table
// is a few dozen lines at most, so a scan beats hashing.
func (p *Port) findMSHR(line uint32) int {
	for i := range p.mshr {
		if p.mshr[i].line == line {
			return i
		}
	}
	return -1
}

func (s *System) serviceL2(seg *segment) {
	p := s.ports[seg.req.SM]
	switch {
	case seg.req.Op.IsAtomic():
		p.stats.L2Accesses++
		s.l2.Fill(seg.line)
		// The atomic executes here, at its position in simulated time.
		s.applyAtomics(seg)
		if seg.parked > 0 {
			break // completes via grantNext when the lock is released
		}
		s.schedule(s.cycle+s.cfg.L2Lat, evFinish, seg)
	case seg.req.Op == isa.OpSt:
		p.stats.L2Accesses++
		s.l2.Fill(seg.line)
		s.applyStores(seg)
		s.schedule(s.cycle+s.cfg.L2Lat, evFinish, seg)
	default: // load (L1 miss or volatile)
		p.stats.L2Accesses++
		if s.l2.Lookup(seg.line) {
			p.stats.L2Hits++
			if seg.req.Vol {
				s.schedule(s.cycle+s.cfg.L2Lat, evVolFill, seg)
			} else {
				s.schedule(s.cycle+s.cfg.L2Lat, evLoadFill, seg)
			}
		} else {
			s.dramQueue.push(seg)
		}
	}
}

func (s *System) dramDone(seg *segment) {
	s.l2.Fill(seg.line)
	if seg.req.Vol {
		s.volFilled(seg)
		return
	}
	s.loadFilled(seg)
}

// volFilled completes a volatile load without touching L1 or MSHRs.
func (s *System) volFilled(seg *segment) {
	s.applyLoads(seg)
	s.finish(seg)
}

// loadFilled commits a load fill: fill L1, release the MSHR, read data
// for the missing segment and then for each merged onto it.
func (s *System) loadFilled(seg *segment) {
	p := s.ports[seg.req.SM]
	p.l1.Fill(seg.line)
	i, last := p.findMSHR(seg.line), len(p.mshr)-1
	seg.next = p.mshr[i].waiters.head // seg's completion is over: its link is free
	p.mshr[i], p.mshr[last] = p.mshr[last], mshrEntry{}
	p.mshr = p.mshr[:last]
	for seg != nil {
		next := seg.next // finish pools seg
		s.applyLoads(seg)
		s.finish(seg)
		seg = next
	}
}

func (s *System) applyLoads(seg *segment) {
	s.curSeg = seg
	defer func() { s.curSeg = nil }()
	for _, li := range seg.lanes {
		a := &seg.req.Accesses[li]
		a.Result = s.Read(a.Addr)
	}
}

func (s *System) applyStores(seg *segment) {
	s.curSeg = seg
	defer func() { s.curSeg = nil }()
	for _, li := range seg.lanes {
		a := &seg.req.Accesses[li]
		s.Write(a.Addr, a.V1)
		if seg.req.Ann&isa.AnnLockRelease != 0 {
			s.releaseOwner(a.Addr)
			s.grantNext(a.Addr)
		}
	}
}

// releaseOwner clears ownership tracking for the lock word at addr.
func (s *System) releaseOwner(addr uint32) {
	if owner, ok := s.lockOwner[addr]; ok {
		delete(s.lockOwner, addr)
		if n := s.warpHolds[owner/32]; n > 1 {
			s.warpHolds[owner/32] = n - 1
		} else {
			delete(s.warpHolds, owner/32)
		}
	}
}

// grantNext hands a just-released lock to the oldest parked acquirer
// (QueueLocks mode): the parked CAS completes as if it had observed the
// free lock. Requires the release-to-zero mutex convention (the grant
// replays cmp/swap of the parked access).
func (s *System) grantNext(addr uint32) {
	q, ok := s.lockQueues[addr]
	if !ok {
		return
	}
	w := q.pop()
	if q.len() == 0 {
		delete(s.lockQueues, addr)
	} else {
		s.lockQueues[addr] = q
	}
	a := &w.seg.req.Accesses[w.li]
	s.Write(a.Addr, a.V2)
	s.lockOwner[a.Addr] = a.GTID
	s.warpHolds[a.GTID/32]++
	a.Result = a.V1 // the CAS observes the free value: success
	if sync := s.ports[w.seg.req.SM].sync; sync != nil {
		sync.LockSuccess++
	}
	w.seg.parked--
	if w.seg.parked == 0 {
		s.schedule(s.cycle+s.cfg.L2Lat, evFinish, w.seg)
	}
}

// applyAtomics performs the read-modify-write for every lane of the
// segment in lane order — the intra-warp serialization order of real
// hardware — and maintains lock-owner tracking for annotated operations.
func (s *System) applyAtomics(seg *segment) {
	s.curSeg = seg
	defer func() { s.curSeg = nil }()
	r := seg.req
	sync := s.ports[r.SM].sync
	for _, li := range seg.lanes {
		a := &r.Accesses[li]
		old := s.Read(a.Addr)
		a.Result = old
		switch r.Op {
		case isa.OpAtomCAS:
			if old == a.V1 {
				if s.cfg.QueueLocks && r.Ann&isa.AnnLockAcquire != 0 && r.qlParked {
					// The request already parked a lane: taking a lock now
					// would block a holder. NACK instead (lane retries).
					a.Result = a.V2
					continue
				}
				s.Write(a.Addr, a.V2)
				if r.Ann&isa.AnnLockAcquire != 0 {
					s.lockOwner[a.Addr] = a.GTID
					s.warpHolds[a.GTID/32]++
					r.qlAcquired = true
					if sync != nil {
						sync.LockSuccess++
					}
				}
			} else if r.Ann&isa.AnnLockAcquire != 0 {
				if s.cfg.QueueLocks && s.warpHolds[a.GTID/32] == 0 && !r.qlAcquired && !r.qlParked {
					// Idealized blocking lock (HQL-style): park the lane;
					// it is granted, in FIFO order, when the holder
					// releases — the acquire never retries.
					q := s.lockQueues[a.Addr]
					q.push(lockWaiter{seg: seg, li: li})
					s.lockQueues[a.Addr] = q
					seg.parked++
					r.qlParked = true
					continue
				}
				if sync != nil {
					// Failed acquire: classify by the holder's warp.
					if owner, ok := s.lockOwner[a.Addr]; ok && owner/32 == a.GTID/32 {
						sync.IntraWarpFail++
					} else {
						sync.InterWarpFail++
					}
				}
			}
		case isa.OpAtomExch:
			s.Write(a.Addr, a.V1)
			if r.Ann&isa.AnnLockRelease != 0 {
				s.releaseOwner(a.Addr)
				if sync != nil {
					sync.LockRelease++
				}
				s.grantNext(a.Addr)
			}
		case isa.OpAtomAdd:
			s.Write(a.Addr, old+a.V1)
		case isa.OpAtomMax:
			if int32(a.V1) > int32(old) {
				s.Write(a.Addr, a.V1)
			}
		}
	}
}

// finish retires one segment; when it is the request's last, the request
// completes. finish is every segment's unique end of life, so the segment
// returns to the issuing port's pool here.
func (s *System) finish(seg *segment) {
	r := seg.req
	seg.req = nil
	p := s.ports[r.SM]
	p.segFree = append(p.segFree, seg)
	r.remaining--
	if r.remaining == 0 {
		s.ports[r.SM].outstanding[r.WarpSlot]--
		if r.Done != nil {
			r.Done(r)
		}
	}
}

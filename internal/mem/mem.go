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
	"slices"

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
	req   *Request
	line  uint32
	lanes []int // indexes into req.Accesses
	// parked counts lanes waiting in a lock queue (QueueLocks mode);
	// the segment completes only when every parked lane is granted.
	parked int
}

// l2Entry is one segment waiting in the L2 service queue. The fields the
// per-cycle arbitration walk tests are copied out of the segment and its
// request so the walk reads contiguous memory instead of chasing
// seg → req → Op for every queued atomic.
type l2Entry struct {
	seg    *segment
	line   uint32
	sm     int32
	atomic bool
	// busyUntil caches atomBusy[line] as read by this entry's last NACK.
	// It is exact while cycle < busyUntil: a busy line services no atomic,
	// and atomBusy[line] is only written at service, so the map is
	// consulted once per entry per busy period rather than once per cycle.
	busyUntil int64
}

// evKind tags a scheduled completion. Events carry a kind and a segment
// instead of a closure so that scheduling is allocation-free on the
// simulated hot path.
type evKind uint8

const (
	evFinish   evKind = iota // finish(seg)
	evL1Hit                  // applyLoads(seg); finish(seg)
	evDRAMDone               // dramDone(seg)
	evLoadFill               // loadFilled(seg)
	evVolFill                // volFilled(seg)
)

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

// System is the shared memory system: functional store, L2, DRAM, atomic
// unit, and one port per SM.
type System struct {
	cfg   config.Memory
	words []uint32
	ports []*Port

	l2        *cache
	l2Queue   []l2Entry
	dramQueue []*segment
	events    eventHeap
	seq       int64
	cycle     int64

	// atomBusy serializes atomics per line at the L2 atomic unit.
	atomBusy map[uint32]int64
	// arbLFSR drives the rotating L2 service arbitration (see Tick).
	arbLFSR uint32
	// l2Tokens throttles L2 bank throughput: a plain access costs one
	// token, an atomic costs AtomLat tokens (the read-modify-write
	// occupies the bank's atomic ALU), so spin-loop CAS spam steals
	// bandwidth from all other traffic — the paper's §II observation.
	l2Tokens int64
	// l2Nacks tallies, per SM, the NACKs of the most recent service scan;
	// they are added to stats.AtomRetries once after the walk.
	//
	// l2StuckUntil caches the result of a scan that covered the whole queue
	// and NACKed every segment: each was an atomic whose line stays busy
	// until at least this cycle (exclusive). Until then — provided nothing
	// new is enqueued (pushL2 clears it) — every scan is byte-for-byte the
	// same retry storm, so Tick replays l2Nacks instead of re-walking the
	// queue. Lock-retry storms (dozens of CASes parked on one line)
	// otherwise make the scan O(queue) per cycle; this makes those cycles
	// O(SMs) with identical statistics.
	l2Nacks      []int64
	l2StuckUntil int64

	// lockOwner maps a lock word address to the global thread id of the
	// current holder (annotated acquires/releases only).
	lockOwner map[uint32]int32
	// lockQueues holds parked acquires per lock word (QueueLocks mode).
	lockQueues map[uint32][]lockWaiter
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

	lsq []*segment // segments awaiting injection, FIFO
	// mshr maps line -> segments merged on an outstanding miss.
	mshr map[uint32][]*segment
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
		atomBusy:   make(map[uint32]int64),
		l2Nacks:    make([]int64, numSMs),
		lockOwner:  make(map[uint32]int32),
		lockQueues: make(map[uint32][]lockWaiter),
		warpHolds:  make(map[int32]int),
	}
	s.ports = make([]*Port, numSMs)
	for i := range s.ports {
		s.ports[i] = &Port{
			sys:         s,
			sm:          i,
			l1:          newCache(cfg.L1KB, cfg.L1Assoc),
			mshr:        make(map[uint32][]*segment),
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

func (s *System) schedule(at int64, kind evKind, seg *segment) {
	if s.inj != nil {
		at += s.inj.delay()
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, kind: kind, seg: seg})
}

func (s *System) dispatch(e event) {
	switch e.kind {
	case evFinish:
		s.finish(e.seg)
	case evL1Hit:
		s.applyLoads(e.seg)
		s.finish(e.seg)
	case evDRAMDone:
		s.dramDone(e.seg)
	case evLoadFill:
		s.loadFilled(e.seg)
	case evVolFill:
		s.volFilled(e.seg)
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
	return len(p.lsq)+nSegments <= p.sys.cfg.LSQDepth
}

// Outstanding returns in-flight memory instructions for a warp slot.
func (p *Port) Outstanding(warpSlot int) int { return p.outstanding[warpSlot] }

// LSQEmpty reports whether no segment awaits injection. While true and
// the SM issues nothing, CanAccept cannot flip, so port-side warp
// readiness can only change through a completion callback — the property
// the engine's SM dormancy optimization rests on.
func (p *Port) LSQEmpty() bool { return len(p.lsq) == 0 }

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
		p.lsq = append(p.lsq, seg)
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
	for {
		at, ok := s.events.Peek()
		if !ok || at > cycle {
			break
		}
		s.dispatch(s.events.popRoot())
	}
	// 2. Service the DRAM queue (bandwidth limited).
	n := s.cfg.DRAMBw
	for n > 0 && len(s.dramQueue) > 0 {
		seg := s.dramQueue[0]
		s.dramQueue = s.dramQueue[1:]
		n--
		s.ports[seg.req.SM].stats.DRAMAccesses++
		s.schedule(cycle+s.cfg.DRAMLat, evDRAMDone, seg)
	}
	// 3. Service the L2 queue (banked; atomics serialized per line and
	// charged AtomLat bank tokens).
	s.l2Tokens += int64(s.cfg.L2Banks)
	if s.l2Tokens > 4*int64(s.cfg.L2Banks) {
		s.l2Tokens = 4 * int64(s.cfg.L2Banks)
	}
	// The scan start rotates pseudo-randomly across cycles. A strictly
	// FIFO pick would make every transaction's queueing delay identical
	// round after round, letting symmetrically conflicting lock retries
	// (nested try-locks in ATM/DS) re-collide forever — a determinism
	// artifact real interconnect/DRAM arbitration does not have.
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
	// 4. Inject one segment per SM port.
	for _, p := range s.ports {
		p.inject()
	}
	// Opportunistically trim the atomic-busy map.
	if len(s.atomBusy) > 64 {
		for line, busy := range s.atomBusy {
			if busy <= cycle {
				delete(s.atomBusy, line)
			}
		}
	}
}

// NextEventAt returns the timestamp of the earliest scheduled completion
// event, or false when none is pending.
func (s *System) NextEventAt() (int64, bool) { return s.events.Peek() }

// Idle reports whether Tick currently has no per-cycle work: the DRAM and
// L2 service queues and every port's LSQ are empty. While idle, a Tick
// that fires no due event changes nothing observable except the L2 token
// bucket (MSHR maps, parked lock waiters and the atomic-busy table are
// passive — they only change when an event fires or a new segment is
// injected), so the engine's event-driven clock may skip idle cycles and
// settle the token bucket through FastForward.
func (s *System) Idle() bool {
	if len(s.l2Queue) > 0 || len(s.dramQueue) > 0 {
		return false
	}
	for _, p := range s.ports {
		if len(p.lsq) > 0 {
			return false
		}
	}
	return true
}

// FastForward credits delta skipped idle cycles to the only time-driven
// state Tick advances while Idle: the L2 token bucket. Per-cycle Tick
// refills l2Tokens by L2Banks and caps at 4×L2Banks before any
// consumption; with the L2 queue empty nothing consumes, so delta
// iterations of (add, cap) equal one capped bulk add — the skip is
// cycle-exact.
func (s *System) FastForward(delta int64) {
	s.l2Tokens += int64(s.cfg.L2Banks) * delta
	if lim := 4 * int64(s.cfg.L2Banks); s.l2Tokens > lim {
		s.l2Tokens = lim
	}
}

// Quiescent reports whether no transactions are in flight anywhere.
func (s *System) Quiescent() bool {
	if len(s.events) > 0 || len(s.l2Queue) > 0 || len(s.dramQueue) > 0 || len(s.lockQueues) > 0 {
		return false
	}
	for _, p := range s.ports {
		if len(p.lsq) > 0 || len(p.mshr) > 0 {
			return false
		}
	}
	return true
}

// pushL2 is the only way segments enter the L2 service queue: the append
// invalidates the stuck-scan cache, because a fresh segment (even another
// blocked atomic) changes what the next scan charges and may be
// serviceable.
func (s *System) pushL2(seg *segment) {
	s.l2Queue = append(s.l2Queue, l2Entry{
		seg: seg, line: seg.line, sm: int32(seg.req.SM), atomic: seg.req.Op.IsAtomic(),
	})
	s.l2StuckUntil = 0
}

func (p *Port) inject() {
	if len(p.lsq) == 0 {
		return
	}
	seg := p.lsq[0]
	s := p.sys
	switch {
	case seg.req.Op.IsAtomic():
		// Atomics bypass (and invalidate) L1 and go to the L2 atomic unit.
		p.l1.Invalidate(seg.line)
		p.stats.AtomicOps++
		s.pushL2(seg)
	case seg.req.Op == isa.OpSt:
		// Write-through, no write-allocate: evict from L1, send to L2.
		p.l1.Invalidate(seg.line)
		p.stats.L1Accesses++
		s.pushL2(seg)
	case seg.req.Vol:
		// Volatile load: bypass and invalidate the non-coherent L1.
		p.l1.Invalidate(seg.line)
		s.pushL2(seg)
	default: // load
		p.stats.L1Accesses++
		if p.l1.Lookup(seg.line) {
			p.stats.L1Hits++
			s.schedule(s.cycle+s.cfg.L1HitLat, evL1Hit, seg)
		} else {
			if waiting, ok := p.mshr[seg.line]; ok {
				// Merge with the outstanding miss.
				p.stats.MSHRMerges++
				p.mshr[seg.line] = append(waiting, seg)
			} else {
				if len(p.mshr) >= s.cfg.L1MSHRs {
					p.stats.MSHRStalls++
					return // no MSHR free: stall injection this cycle
				}
				p.mshr[seg.line] = []*segment{seg}
				s.pushL2(seg)
			}
		}
	}
	// Pop by shifting down rather than re-slicing from the front: the LSQ is
	// a few entries deep, and lsq[1:] gives up capacity on every pop, so an
	// SM that drains its queue each cycle would reallocate on every Enqueue.
	p.lsq = slices.Delete(p.lsq, 0, 1)
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
			s.dramQueue = append(s.dramQueue, seg)
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

// loadFilled commits a load fill: fill L1, read data for every merged
// segment, release the MSHR.
func (s *System) loadFilled(seg *segment) {
	p := s.ports[seg.req.SM]
	p.l1.Fill(seg.line)
	merged := p.mshr[seg.line]
	delete(p.mshr, seg.line)
	if merged == nil {
		merged = []*segment{seg}
	}
	for _, m := range merged {
		s.applyLoads(m)
		s.finish(m)
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
	q := s.lockQueues[addr]
	if len(q) == 0 {
		return
	}
	w := q[0]
	if len(q) == 1 {
		delete(s.lockQueues, addr)
	} else {
		s.lockQueues[addr] = q[1:]
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
					s.lockQueues[a.Addr] = append(s.lockQueues[a.Addr], lockWaiter{seg: seg, li: li})
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

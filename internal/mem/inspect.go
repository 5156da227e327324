// Read-only inspection of in-flight memory-system state, consumed by the
// engine's hang diagnosis (internal/sim/hang.go) and runtime invariant
// checker (internal/sim/invariants.go). Nothing here mutates simulation
// state (Audit writes only its own marks on segments), so inspection
// cannot perturb a run.
package mem

import (
	"fmt"
	"sort"
)

// InFlightSummary counts the memory system's in-flight work by where it
// is queued. A hang with everything zero except LockWaiters is the
// classic queue-lock deadlock: every remaining transaction is a parked
// acquire that no release will ever grant.
type InFlightSummary struct {
	// Events is the number of scheduled completions; L2Queue and DRAMQueue
	// the segments awaiting service there.
	Events    int
	L2Queue   int
	DRAMQueue int
	// LSQ sums segments waiting for injection across all SM ports; MSHR
	// sums outstanding L1 miss lines.
	LSQ  int
	MSHR int
	// LockWaiters is the number of parked lock acquires (QueueLocks mode).
	LockWaiters int
}

// Total returns all in-flight work items (parked waiters included).
func (f InFlightSummary) Total() int {
	return f.Events + f.L2Queue + f.DRAMQueue + f.LSQ + f.MSHR + f.LockWaiters
}

// OnlyParked reports whether the only in-flight work is parked lock
// acquires — transactions that complete only if some warp releases the
// lock, i.e. a deadlock once no warp can.
func (f InFlightSummary) OnlyParked() bool {
	return f.LockWaiters > 0 && f.Total() == f.LockWaiters
}

// InFlight summarizes the system's in-flight work.
func (s *System) InFlight() InFlightSummary {
	var f InFlightSummary
	f.Events = s.events.n
	f.L2Queue = s.l2q.n
	f.DRAMQueue = s.dramQueue.len()
	for _, q := range s.lockQueues {
		f.LockWaiters += q.len()
	}
	for _, p := range s.ports {
		f.LSQ += p.lsq.len()
		f.MSHR += len(p.mshr)
	}
	return f
}

// MSHRLines returns the port's outstanding L1 miss-line count.
func (p *Port) MSHRLines() int { return len(p.mshr) }

// ParkedWaiter is one parked lock acquire (QueueLocks mode): the lock
// word it waits on and the warp that issued it.
type ParkedWaiter struct {
	Addr     uint32
	SM       int
	WarpSlot int
	GTID     int32
}

// ParkedWaiters returns every parked lock acquire, sorted by (Addr, queue
// position) so output is deterministic.
func (s *System) ParkedWaiters() []ParkedWaiter {
	var out []ParkedWaiter
	addrs := make([]uint32, 0, len(s.lockQueues))
	for addr := range s.lockQueues {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		q := s.lockQueues[addr]
		for _, w := range q.items() {
			a := &w.seg.req.Accesses[w.li]
			out = append(out, ParkedWaiter{Addr: addr, SM: w.seg.req.SM,
				WarpSlot: w.seg.req.WarpSlot, GTID: a.GTID})
		}
	}
	return out
}

// ForEachInFlightRequest calls fn once per distinct in-flight Request —
// every request that has been Enqueued but whose Done has not fired. The
// engine's invariant checker cross-checks these against its scoreboards
// and request-pool accounting. Iteration order is unspecified.
func (s *System) ForEachInFlightRequest(fn func(*Request)) {
	seen := make(map[*Request]struct{})
	s.eachQueued(func(_ queue, seg *segment) bool {
		if _, ok := seen[seg.req]; !ok && seg.req != nil {
			seen[seg.req] = struct{}{}
			fn(seg.req)
		}
		return true
	})
}

// queue names a place a segment waits in.
type queue uint8

const (
	onWheel queue = iota
	onL2Queue
	onDRAMQueue
	onLockQueue
	onLSQ
	onMSHRChain
)

func (q queue) String() string {
	return [...]string{"the wheel", "the L2 queue", "the DRAM queue", "a lock queue", "an LSQ", "an MSHR chain"}[q]
}

// eachQueued calls fn with every segment waiting on the wheel, in the L2
// or DRAM queue, in a lock queue, on an LSQ or on an MSHR chain, and that
// queue. A chain is cut short where fn returns false.
func (s *System) eachQueued(fn func(q queue, seg *segment) bool) {
	for _, sl := range s.events.slots {
		for seg := sl.head; seg != nil && fn(onWheel, seg); seg = seg.next {
		}
	}
	for _, e := range s.l2q.ent[:s.l2q.tail] {
		if e.seg != nil { // nil in a hole
			fn(onL2Queue, e.seg)
		}
	}
	for _, seg := range s.dramQueue.items() {
		fn(onDRAMQueue, seg)
	}
	for _, q := range s.lockQueues {
		for _, w := range q.items() {
			fn(onLockQueue, w.seg)
		}
	}
	for _, p := range s.ports {
		for _, seg := range p.lsq.items() {
			fn(onLSQ, seg)
		}
		for _, e := range p.mshr {
			for seg := e.waiters.head; seg != nil && fn(onMSHRChain, seg); seg = seg.next {
			}
		}
	}
}

// Audit runs the memory system's internal consistency checks and returns
// one human-readable line per violation (nil when clean). It validates
// state the engine cannot see from outside: the L2 service queue's index
// and the completion wheel's against a recount from their entries
// (l2.index-drift, wheel.index-drift), that no segment is queued in two
// places at once (segment.aliased), MSHR table shape (mshr), segment pool
// hygiene, lock-queue/parked-count agreement and lock-hold accounting.
// Its three passes over segments mark each one with the pass's stamp
// instead of building a set.
func (s *System) Audit() []string {
	out := append(s.l2q.audit(s.cycle), s.events.audit()...)
	s.audits += 3
	seen, counted, checked := s.audits-2, s.audits-1, s.audits
	// Each segment waits in one queue at most.
	s.eachQueued(func(q queue, seg *segment) bool {
		again := seg.audit == seen
		if again {
			out = append(out, fmt.Sprintf("segment.aliased: line %d queued on %s and on %s", seg.line, seg.queue, q))
		}
		seg.audit, seg.queue = seen, q
		return !again
	})
	for _, p := range s.ports {
		if len(p.mshr) > s.cfg.L1MSHRs {
			out = append(out, fmt.Sprintf("mshr: sm%d: %d lines exceed capacity %d",
				p.sm, len(p.mshr), s.cfg.L1MSHRs))
		}
		for i, e := range p.mshr {
			if p.findMSHR(e.line) != i {
				out = append(out, fmt.Sprintf("mshr: sm%d: line %d held twice", p.sm, e.line))
			}
		}
		for slot, n := range p.outstanding {
			if n < 0 {
				out = append(out, fmt.Sprintf("sm%d/w%d: negative outstanding count %d", p.sm, slot, n))
			}
		}
		for i, seg := range p.segFree {
			if seg != nil && seg.req != nil {
				out = append(out, fmt.Sprintf("sm%d: segment pool entry %d still references a request", p.sm, i))
			}
		}
	}
	// Each parked lane is counted exactly once by its segment.
	for addr, q := range s.lockQueues {
		if q.len() == 0 {
			out = append(out, fmt.Sprintf("empty lock queue for addr %d", addr))
		}
		for _, w := range q.items() {
			if w.seg.audit != counted {
				w.seg.audit, w.seg.waiters = counted, 0
			}
			w.seg.waiters++
		}
	}
	for _, q := range s.lockQueues {
		for _, w := range q.items() {
			if seg := w.seg; seg.audit == counted {
				seg.audit = checked
				if seg.parked != int(seg.waiters) {
					out = append(out, fmt.Sprintf("segment for sm%d line %d: parked=%d but %d queued waiters",
						seg.req.SM, seg.line, seg.parked, seg.waiters))
				}
			}
		}
	}
	for warp, n := range s.warpHolds {
		if n <= 0 {
			out = append(out, fmt.Sprintf("warp %d: non-positive lock-hold count %d", warp, n))
		}
	}
	return out
}

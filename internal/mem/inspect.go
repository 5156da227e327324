// Read-only inspection of in-flight memory-system state, consumed by the
// engine's hang diagnosis (internal/sim/hang.go) and runtime invariant
// checker (internal/sim/invariants.go). Nothing here mutates simulation
// state, so inspection cannot perturb a run.
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
	f.Events = len(s.events)
	f.L2Queue = s.l2q.n
	f.DRAMQueue = s.dramQueue.len()
	for _, q := range s.lockQueues {
		f.LockWaiters += q.len()
	}
	for _, p := range s.ports {
		f.LSQ += len(p.lsq)
		f.MSHR += len(p.mshr)
	}
	return f
}

// MSHRLines returns the port's outstanding L1 miss-line count.
func (p *Port) MSHRLines() int { return len(p.mshr) }

// LSQLen returns the port's pending segment count.
func (p *Port) LSQLen() int { return len(p.lsq) }

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
	visit := func(seg *segment) {
		if seg == nil || seg.req == nil {
			return
		}
		if _, ok := seen[seg.req]; ok {
			return
		}
		seen[seg.req] = struct{}{}
		fn(seg.req)
	}
	for i := range s.events {
		visit(s.events[i].seg)
	}
	for i := range s.l2q.ent[:s.l2q.tail] {
		visit(s.l2q.ent[i].seg) // nil in a hole
	}
	for _, seg := range s.dramQueue.items() {
		visit(seg)
	}
	for _, q := range s.lockQueues {
		for _, w := range q.items() {
			visit(w.seg)
		}
	}
	for _, p := range s.ports {
		for _, seg := range p.lsq {
			visit(seg)
		}
		for _, merged := range p.mshr {
			for _, seg := range merged {
				visit(seg)
			}
		}
	}
}

// Audit runs the memory system's internal consistency checks and returns
// one human-readable line per violation (nil when clean). It validates
// state the engine cannot see from outside: MSHR table shape, segment
// pool hygiene, lock-queue/parked-count agreement, lock-hold accounting,
// and the L2 service queue's index against a recount from its entries
// (reported as l2.index-drift).
func (s *System) Audit() []string {
	out := s.l2q.audit(s.cycle)
	for _, p := range s.ports {
		if len(p.mshr) > s.cfg.L1MSHRs {
			out = append(out, fmt.Sprintf("sm%d: %d MSHR lines exceed capacity %d",
				p.sm, len(p.mshr), s.cfg.L1MSHRs))
		}
		for line, merged := range p.mshr {
			if len(merged) == 0 {
				out = append(out, fmt.Sprintf("sm%d: empty MSHR entry for line %d", p.sm, line))
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
	parkedPerSeg := make(map[*segment]int)
	for addr, q := range s.lockQueues {
		if q.len() == 0 {
			out = append(out, fmt.Sprintf("empty lock queue for addr %d", addr))
		}
		for _, w := range q.items() {
			parkedPerSeg[w.seg]++
		}
	}
	for seg, n := range parkedPerSeg {
		if seg.parked != n {
			out = append(out, fmt.Sprintf("segment for sm%d line %d: parked=%d but %d queued waiters",
				seg.req.SM, seg.line, seg.parked, n))
		}
	}
	for warp, n := range s.warpHolds {
		if n <= 0 {
			out = append(out, fmt.Sprintf("warp %d: non-positive lock-hold count %d", warp, n))
		}
	}
	return out
}

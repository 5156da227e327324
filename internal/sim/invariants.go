// Runtime invariant checking. With Options.Check enabled the engine
// periodically cross-checks redundant state the simulator maintains in
// several places at once — scoreboard pending bits against in-flight
// producers, request-pool gets against puts, CTA slot accounting against
// residency, the event-maintained readiness masks against the
// from-scratch readiness predicate, each BOWS back-off queue against the
// backed-off set, every pick against the ready set it was made from — and
// fails fast with a structured InvariantError instead of silently
// simulating garbage for millions of cycles. Checks are pure reads: a
// checked run simulates cycle-identically to an unchecked one, it just may
// stop earlier (the one check that acts, checkPick, acts only on a policy
// that has already broken its contract).
package sim

import (
	"fmt"
	"math/bits"
	"strings"

	"warpsched/internal/mem"
	"warpsched/internal/simt"
)

// DefaultCheckEvery is the cycle period between invariant sweeps when
// Options.CheckEvery is unset. Each sweep walks every warp slot and
// in-flight request, so the period trades detection latency against
// simulation speed; 4096 keeps checked runs within a few percent of
// unchecked ones.
const DefaultCheckEvery int64 = 4096

// maxStackDepth bounds the SIMT reconvergence stack: a divergence pushes
// at most one entry per active lane transition, so a 32-lane warp can
// never legitimately exceed 2×32+1 frames.
const maxStackDepth = 65

// InvariantViolation is one failed consistency check. SM and Slot are -1
// when the violation is not tied to one.
type InvariantViolation struct {
	Name   string // e.g. "scoreboard.stuck-bit", "pool.balance"
	Cycle  int64
	SM     int
	Slot   int
	Detail string
}

// String renders the violation with its invariant name, cycle and
// SM/warp location.
func (v InvariantViolation) String() string {
	loc := ""
	switch {
	case v.SM >= 0 && v.Slot >= 0:
		loc = fmt.Sprintf(" sm%d/w%d", v.SM, v.Slot)
	case v.SM >= 0:
		loc = fmt.Sprintf(" sm%d", v.SM)
	}
	return fmt.Sprintf("%s@%d%s: %s", v.Name, v.Cycle, loc, v.Detail)
}

// InvariantError aggregates every violation found by one sweep.
type InvariantError struct {
	Violations []InvariantViolation
}

// Error lists the first few violations and the total count.
func (e *InvariantError) Error() string {
	const show = 3
	parts := make([]string, 0, show)
	for i, v := range e.Violations {
		if i == show {
			parts = append(parts, fmt.Sprintf("(+%d more)", len(e.Violations)-show))
			break
		}
		parts = append(parts, v.String())
	}
	return fmt.Sprintf("sim: %d invariant violation(s): %s", len(e.Violations), strings.Join(parts, "; "))
}

// slotProducers collects, per warp slot, the scoreboard bits that
// in-flight memory requests will eventually release. own bits belong to
// requests whose Owner is the slot's current warp; stale bits belong to
// requests issued by a previous occupant (the warp exited with a
// reg-writing request still in flight and the slot was recycled — their
// completion pokes the slot's scoreboard even though the register value
// goes to the departed warp).
type slotProducers struct {
	own   uint64
	stale uint64
	count int // distinct in-flight requests charged to this slot
}

// checkInvariants sweeps every consistency check. atEnd additionally
// requires the machine to be fully drained (no in-flight requests, pool
// gets == puts). It returns nil or an *InvariantError listing every
// violation found.
func (e *Engine) checkInvariants(atEnd bool) error {
	e.flushSMs()
	var vs []InvariantViolation
	add := func(name string, sm, slot int, format string, args ...any) {
		vs = append(vs, InvariantViolation{Name: name, Cycle: e.cycle, SM: sm, Slot: slot,
			Detail: fmt.Sprintf(format, args...)})
	}

	// In-flight requests, grouped by (SM, slot). Every in-flight request
	// must be attributable to a valid slot on a valid SM.
	slots := e.opt.GPU.WarpsPerSM
	prod := make([][]slotProducers, len(e.sms))
	for i := range prod {
		prod[i] = make([]slotProducers, slots)
	}
	e.sys.ForEachInFlightRequest(func(r *mem.Request) {
		if r.SM < 0 || r.SM >= len(e.sms) || r.WarpSlot < 0 || r.WarpSlot >= slots {
			add("mem.request-route", r.SM, r.WarpSlot, "in-flight %v request outside SM/slot range", r.Op)
			return
		}
		p := &prod[r.SM][r.WarpSlot]
		p.count++
		if !r.WritesReg || len(r.Accesses) == 0 {
			return
		}
		if r.Owner == e.sms[r.SM].warps[r.WarpSlot] {
			p.own |= 1 << uint(r.Dst)
		} else {
			p.stale |= 1 << uint(r.Dst)
		}
	})

	for i, m := range e.sms {
		// Scoreboard bits the ALU writeback ring will release.
		wbReg := make([]uint64, slots)
		wbPred := make([]uint64, slots)
		for _, ring := range m.wbRing {
			for _, it := range ring {
				if it.isPred {
					if m.predPend[it.slot]&(1<<it.idx) == 0 {
						add("scoreboard.wb-orphan", i, it.slot,
							"writeback ring holds p%d but predicate scoreboard bit is clear", it.idx)
					}
					wbPred[it.slot] |= 1 << it.idx
				} else {
					if m.regPend[it.slot]&(1<<it.idx) == 0 {
						add("scoreboard.wb-orphan", i, it.slot,
							"writeback ring holds r%d but register scoreboard bit is clear", it.idx)
					}
					wbReg[it.slot] |= 1 << it.idx
				}
			}
		}

		vs = append(vs, m.badPicks...)
		m.badPicks = m.badPicks[:0]
		for j, u := range m.units {
			if u.wrapped == nil {
				continue
			}
			// Wrapped.PickMask and BackoffStall decide "no ready backed-off
			// warp" from the mask alone, which is only right while the FIFO
			// holds exactly the unit's backed-off slots, once each.
			queue, queued := u.wrapped.Queue(), uint64(0)
			for _, s := range queue {
				queued |= 1 << uint(s)
			}
			if want := m.bows.BackedOffMask() & u.mask; queued != want || len(queue) != bits.OnesCount64(want) {
				add("bows.queue-drift", i, -1, "unit %d back-off queue %v is not the unit's backed-off set %#x", j, queue, want)
			}
		}

		var inFlight int
		for slot := 0; slot < slots; slot++ {
			p := prod[i][slot]
			inFlight += p.count
			m.checkSlotMasks(slot, add)
			if m.warps[slot] == nil {
				// Empty slots may carry stale scoreboard bits (cleared when the
				// stale producer completes) but never own/ALU producers.
				if wbReg[slot] != 0 || wbPred[slot] != 0 || p.own != 0 {
					add("scoreboard.empty-slot", i, slot,
						"empty slot has live producers (wbReg=%#x wbPred=%#x own=%#x)",
						wbReg[slot], wbPred[slot], p.own)
				}
				continue
			}
			// Every pending bit must have a producer that will clear it;
			// every own producer must have its bit pending (a missing bit is
			// tolerated only when a stale producer for the same register may
			// have cleared it early).
			if extra := m.regPend[slot] &^ (wbReg[slot] | p.own | p.stale); extra != 0 {
				add("scoreboard.stuck-bit", i, slot,
					"register bits %#x pending with no in-flight producer", extra)
			}
			if missing := (wbReg[slot] | p.own) &^ (m.regPend[slot] | p.stale); missing != 0 {
				add("scoreboard.missing-bit", i, slot,
					"register bits %#x have live producers but are not pending", missing)
			}
			if m.predPend[slot] != wbPred[slot] {
				add("scoreboard.pred-mismatch", i, slot,
					"predicate scoreboard %#x != writeback ring %#x", m.predPend[slot], wbPred[slot])
			}
			if d := len(m.warps[slot].Stack); d < 1 || d > maxStackDepth {
				add("simt.stack-depth", i, slot, "reconvergence stack depth %d outside [1,%d]", d, maxStackDepth)
			}
		}

		// issued == completed + in-flight, expressed through the request
		// pool: every get that has not been put back is exactly one
		// in-flight request, and the port's per-slot outstanding counters
		// must agree.
		if live := m.reqGets - m.reqPuts; live != int64(inFlight) {
			add("pool.balance", i, -1,
				"request pool has %d live requests (gets=%d puts=%d) but %d are in flight",
				live, m.reqGets, m.reqPuts, inFlight)
		}
		var outstanding int
		for slot := 0; slot < slots; slot++ {
			outstanding += m.port.Outstanding(slot)
		}
		if outstanding != inFlight {
			add("port.outstanding", i, -1,
				"port counts %d outstanding but %d requests are in flight", outstanding, inFlight)
		}
		if lines := m.port.MSHRLines(); lines > e.opt.GPU.Mem.L1MSHRs {
			add("mem.mshr-bound", i, -1, "%d MSHR lines exceed capacity %d", lines, e.opt.GPU.Mem.L1MSHRs)
		}

		// CTA/warp accounting: slots are either free or occupied, free
		// slots are empty and unique, and residency matches live CTAs.
		occupied := 0
		for _, w := range m.warps {
			if w != nil {
				occupied++
			}
		}
		if occupied+len(m.freeSlots) != slots {
			add("cta.slot-accounting", i, -1, "%d occupied + %d free != %d slots",
				occupied, len(m.freeSlots), slots)
		}
		seen := make(map[int]bool, len(m.freeSlots))
		for _, s := range m.freeSlots {
			if s < 0 || s >= slots || seen[s] {
				add("cta.free-slot", i, s, "free-slot list entry %d out of range or duplicated", s)
				continue
			}
			seen[s] = true
			if m.warps[s] != nil {
				add("cta.free-slot", i, s, "slot %d is on the free list but holds a warp", s)
			}
		}
		for _, rec := range m.ctas {
			if rec.cta.LiveWarps() == 0 {
				add("cta.residency", i, -1, "CTA %d is listed resident but has no live warps", rec.cta.ID)
			}
		}

		if atEnd {
			if m.reqGets != m.reqPuts {
				add("pool.leak", i, -1, "run ended with gets=%d != puts=%d (%d requests leaked)",
					m.reqGets, m.reqPuts, m.reqGets-m.reqPuts)
			}
			if inFlight != 0 {
				add("mem.drain", i, -1, "run ended with %d requests still in flight", inFlight)
			}
		}
	}

	// The memory system's own internal audit (MSHR shape, segment pool
	// hygiene, lock-queue bookkeeping).
	for _, line := range e.sys.Audit() {
		add("mem.audit", -1, -1, "%s", line)
	}

	// Barrier membership sanity: a warp marked AtBarrier must belong to a
	// CTA that still has warps to arrive (Arrive releases the whole CTA
	// when the last live warp arrives, so a lone straggler is a bug).
	for i, m := range e.sms {
		for slot, w := range m.warps {
			if w != nil && w.AtBarrier && barrierComplete(w.CTA, m) {
				add("cta.barrier", i, slot, "warp waits at a barrier every live CTA warp has reached")
			}
		}
	}

	if len(vs) == 0 {
		return nil
	}
	return &InvariantError{Violations: vs}
}

// readyFromScratch is the readiness predicate computed from machine state
// alone — what smState.ready computed on every probe before the masks
// existed. It is the oracle the maintained bits are checked against, and
// nothing on the simulation path calls it.
func (m *smState) readyFromScratch(slot int) bool {
	w := m.warps[slot]
	if w == nil || w.Done || w.AtBarrier {
		return false
	}
	d := m.eng.tab.At(w.PC())
	if m.regPend[slot]&d.RegMask != 0 || m.predPend[slot]&d.PredMask != 0 {
		return false
	}
	switch d.Class {
	case simt.ClassMem:
		return m.port.Outstanding(slot) < m.eng.opt.GPU.Mem.MaxPerWarp && m.port.CanAccept(1)
	case simt.ClassMembar:
		return m.port.Outstanding(slot) == 0
	}
	return true
}

// checkSlotMasks cross-checks slot's event-maintained state against the
// machine: the live bit against the warp table, the ready and next-is-mem
// bits against readyFromScratch (a drift means some event that changes
// readiness does not call refresh), and the lazy accounting mark against
// SampleCycles (a mark ahead of it would settle a negative span).
func (m *smState) checkSlotMasks(slot int, add func(name string, sm, slot int, format string, args ...any)) {
	bit := uint64(1) << uint(slot)
	w := m.warps[slot]
	if live := w != nil && !w.Done; (m.live&bit != 0) != live {
		add("live.mask-drift", m.id, slot, "live bit %v but warp live %v", m.live&bit != 0, live)
	}
	if got, want := m.ready(slot), m.readyFromScratch(slot); got != want {
		add("ready.mask-drift", m.id, slot, "maintained readiness %v, from scratch %v (sbReady %v, nextMem %v)",
			got, want, m.sbReady&bit != 0, m.nextMem&bit != 0)
	} else if m.sbReady&bit != 0 {
		if isMem := m.eng.tab.At(w.PC()).Class == simt.ClassMem; (m.nextMem&bit != 0) != isMem {
			add("ready.mask-drift", m.id, slot, "next-is-mem bit %v but the next instruction's memory class is %v",
				m.nextMem&bit != 0, isMem)
		}
	}
	if m.acctMark[slot] > m.st.SampleCycles {
		add("acct.mark-ahead", m.id, slot, "accounting mark %d is ahead of SampleCycles %d",
			m.acctMark[slot], m.st.SampleCycles)
	}
}

// checkPick enforces PickMask's contract where it is called, under
// Options.Check: a returned slot must be a set bit of the ready set the
// policy was given. A violation is kept for the next sweep to report as
// pick.not-ready, and the issue is refused (the result is -1) — the slot may
// hold no warp at all — so from that cycle on a checked run of a broken
// policy no longer matches the unchecked one.
func (m *smState) checkPick(u *smUnit, slot int, ready uint64, cycle int64) int {
	if slot < 0 || slot < 64 && ready>>uint(slot)&1 != 0 {
		return slot
	}
	m.badPicks = append(m.badPicks, InvariantViolation{Name: "pick.not-ready", Cycle: cycle, SM: m.id, Slot: slot,
		Detail: fmt.Sprintf("%s returned slot %d, not a member of the ready set %#x it was given", u.policy.Name(), slot, ready)})
	return -1
}

// barrierComplete reports whether every live warp of cta currently
// resident on m is parked at the barrier — a state CTA.Arrive should have
// released immediately.
func barrierComplete(cta *simt.CTA, m *smState) bool {
	any := false
	for _, w := range m.warps {
		if w == nil || w.CTA != cta || w.Done {
			continue
		}
		any = true
		if !w.AtBarrier {
			return false
		}
	}
	return any
}

// Package trace collects per-cycle pipeline events from the simulator for
// debugging and teaching: which warp issued what instruction when, which
// branches triggered BOWS back-off, and when warps were released from the
// backed-off state. The engine invokes a Tracer only when one is
// attached, so tracing costs nothing when off.
package trace

import (
	"fmt"
	"strings"

	"warpsched/internal/isa"
)

// Kind classifies an event.
type Kind uint8

const (
	// KindIssue is an instruction issue.
	KindIssue Kind = iota
	// KindSIB is a taken spin-inducing branch (BOWS trigger).
	KindSIB
	// KindBackoffExit is a warp leaving the backed-off state.
	KindBackoffExit
	// KindBarrier is a warp arriving at a CTA barrier.
	KindBarrier
)

var kindNames = [...]string{
	KindIssue: "issue", KindSIB: "SIB", KindBackoffExit: "unbackoff",
	KindBarrier: "barrier",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// Event is one pipeline occurrence.
type Event struct {
	Cycle int64
	SM    int
	Slot  int
	Kind  Kind
	PC    int32
	Op    isa.Op
	Lanes int
}

// String renders the event on one line.
func (e Event) String() string {
	switch e.Kind {
	case KindIssue:
		return fmt.Sprintf("%8d sm%d w%02d issue %04d %-10s lanes=%d",
			e.Cycle, e.SM, e.Slot, e.PC, e.Op, e.Lanes)
	case KindSIB:
		return fmt.Sprintf("%8d sm%d w%02d SIB   %04d (backed off)", e.Cycle, e.SM, e.Slot, e.PC)
	case KindBackoffExit:
		return fmt.Sprintf("%8d sm%d w%02d exits backed-off state", e.Cycle, e.SM, e.Slot)
	case KindBarrier:
		return fmt.Sprintf("%8d sm%d w%02d at barrier", e.Cycle, e.SM, e.Slot)
	}
	return fmt.Sprintf("%8d sm%d w%02d %s", e.Cycle, e.SM, e.Slot, e.Kind)
}

// Ring is a fixed-capacity event recorder keeping the most recent events.
// It is the standard Tracer implementation; custom tracers can implement
// the sim.Tracer interface directly. A Ring is unsynchronized (it sits on
// the simulator's issue path), so each engine needs its own.
type Ring struct {
	events []Event
	next   int
	full   bool
	total  int64
}

// NewRing creates a recorder holding the last n events.
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{events: make([]Event, n)}
}

// Record implements the simulator's Tracer interface.
func (r *Ring) Record(e Event) {
	r.total++
	r.events[r.next] = e
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.full = true
	}
}

// Total returns the number of events recorded (including evicted ones).
func (r *Ring) Total() int64 { return r.total }

// Events returns the retained events in chronological order.
func (r *Ring) Events() []Event {
	if !r.full {
		out := make([]Event, r.next)
		copy(out, r.events[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Dump renders the retained events, one per line.
func (r *Ring) Dump() string {
	var sb strings.Builder
	for _, e := range r.Events() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

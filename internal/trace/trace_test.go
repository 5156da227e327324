package trace

import (
	"strings"
	"testing"

	"warpsched/internal/isa"
)

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRing(3)
	for i := int64(0); i < 5; i++ {
		r.Record(Event{Cycle: i, Kind: KindIssue})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Cycle != int64(2+i) {
			t.Fatalf("event %d cycle = %d, want %d (chronological, most recent)", i, e.Cycle, 2+i)
		}
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d", r.Total())
	}
}

func TestRingPartial(t *testing.T) {
	r := NewRing(8)
	r.Record(Event{Cycle: 1})
	r.Record(Event{Cycle: 2})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Cycle != 1 || evs[1].Cycle != 2 {
		t.Fatalf("partial ring wrong: %v", evs)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Cycle: 42, SM: 1, Slot: 7, Kind: KindIssue, PC: 14, Op: isa.OpAtomCAS, Lanes: 32}
	s := e.String()
	for _, want := range []string{"42", "sm1", "w07", "atom.cas", "lanes=32"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
	if !strings.Contains(Event{Kind: KindSIB}.String(), "SIB") {
		t.Error("SIB event rendering wrong")
	}
	if !strings.Contains(Event{Kind: KindBackoffExit}.String(), "backed-off") {
		t.Error("backoff-exit rendering wrong")
	}
}

func TestDumpLines(t *testing.T) {
	r := NewRing(4)
	r.Record(Event{Cycle: 1, Kind: KindBarrier})
	r.Record(Event{Cycle: 2, Kind: KindSIB})
	if got := strings.Count(r.Dump(), "\n"); got != 2 {
		t.Fatalf("dump lines = %d", got)
	}
}

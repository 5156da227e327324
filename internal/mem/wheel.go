package mem

import (
	"fmt"
	"math"
	"math/bits"
)

// wheel is the calendar queue of scheduled completions (Tick's step 1),
// threaded through their segments, each of which has at most one pending.
// Slot at&mask lists those due at cycle at in scheduling order, and every
// queued at lies in [base, base+len(slots)): cyclic slot order from base
// is time order, and the heap it replaced (kept in reference_test.go)
// ordered by (time, scheduling order) too.
type wheel struct {
	slots []chain
	occ   []uint64 // occupied slots, one bit each
	mask  int64
	// base is the cycle after the last fireDue: nothing queued is due
	// before it, and nothing is scheduled a horizon or more after it.
	base int64
	n    int
	// nextAt is the earliest queued completion's cycle, MaxInt64 if none.
	nextAt int64
}

// newWheel sizes a wheel to the power of two above horizon, the furthest
// ahead of its Tick a completion can be scheduled.
func newWheel(horizon int64) wheel {
	size := max(64, int64(1)<<bits.Len64(uint64(horizon)))
	return wheel{slots: make([]chain, size), occ: make([]uint64, size/64), mask: size - 1, nextAt: math.MaxInt64}
}

// chain is a FIFO of segments linked through next: a wheel slot, or the
// loads merged onto an outstanding L1 miss. Tail is stale while head is nil.
type chain struct{ head, tail *segment }

// push appends seg and reports whether the chain was empty.
func (c *chain) push(seg *segment) bool {
	seg.next = nil
	if c.head == nil {
		c.head, c.tail = seg, seg
		return true
	}
	c.tail.next, c.tail = seg, seg
	return false
}

// push queues seg's completion, due at seg.at, behind those due then.
func (w *wheel) push(seg *segment) {
	if i := seg.at & w.mask; w.slots[i].push(seg) {
		w.occ[i>>6] |= 1 << (i & 63)
	}
	w.n++
	w.nextAt = min(w.nextAt, seg.at)
}

// due removes and returns the earliest completion due by cycle. Once none
// is, it returns nil and moves base up to cycle+1.
func (w *wheel) due(cycle int64) *segment {
	if w.nextAt > cycle {
		w.base = cycle + 1
		return nil
	}
	i := w.nextAt & w.mask
	sl := &w.slots[i]
	seg := sl.head
	w.n--
	if sl.head = seg.next; sl.head == nil {
		w.occ[i>>6] &^= 1 << (i & 63)
		w.nextAt = w.after(w.nextAt)
	}
	return seg
}

// after returns the cycle of the earliest completion queued, all of them
// after at: that of the first occupied slot cyclically past at's.
func (w *wheel) after(at int64) int64 {
	if w.n == 0 {
		return math.MaxInt64
	}
	from := (at + 1) & w.mask
	wi := int(from >> 6)
	// The word's slots from from up, then whole words: n > 0, so one is set.
	m := w.occ[wi] & (^uint64(0) << (from & 63))
	for m == 0 {
		wi = (wi + 1) % len(w.occ)
		m = w.occ[wi]
	}
	i := int64(wi)<<6 | int64(bits.TrailingZeros64(m))
	return at + 1 + (i-from)&w.mask
}

// audit recounts the wheel from its slots and checks each completion is in
// its cycle's slot, inside the window. It stops a chain that loops.
func (w *wheel) audit() []string {
	var out []string
	n, next, size := 0, int64(math.MaxInt64), int64(len(w.slots))
	for i, sl := range w.slots {
		if occ := w.occ[i>>6]&(1<<(i&63)) != 0; occ != (sl.head != nil) {
			out = append(out, fmt.Sprintf("wheel.index-drift: slot %d: occupied=%v, bitmap bit %v", i, sl.head != nil, occ))
		}
		for seg := sl.head; seg != nil && n <= w.n; seg = seg.next {
			if n, next = n+1, min(next, seg.at); seg.at&w.mask != int64(i) || seg.at < w.base || seg.at >= w.base+size {
				out = append(out, fmt.Sprintf("wheel.index-drift: slot %d: completion due at %d, outside [%d, %d) or its slot", i, seg.at, w.base, w.base+size))
			}
		}
	}
	if n != w.n || next != w.nextAt {
		out = append(out, fmt.Sprintf("wheel.index-drift: %d completions, earliest at %d; counted as %d at %d", n, next, w.n, w.nextAt))
	}
	return out
}

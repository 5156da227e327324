// The indexed L2 service queue: the arbitration walk of Tick's step 3
// without the walk. DESIGN.md §8b carries the exactness argument; the flat
// queue it replaced survives, verbatim, as the oracle in reference_test.go.
package mem

import (
	"fmt"
	"math/bits"
)

// fifo is a queue popped by head index. Re-slicing from the front
// (q = q[1:]) gives up one element of capacity per pop, so a queue that is
// drained as fast as it fills reallocates on every append; a head index
// keeps the backing array, rewinds when the queue empties and reclaims the
// popped prefix before it would grow.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// items returns the queued elements, oldest first.
func (f *fifo[T]) items() []T { return f.buf[f.head:] }

func (f *fifo[T]) push(v T) {
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

// pop removes the oldest element. The caller must have checked len() > 0.
func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero // do not pin what was popped
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v
}

// lineWait is the atomic unit's record for one cache line: until when the
// line is occupied by the last read-modify-write, and which queued atomics
// target it. A record exists while the line is busy or has queued atomics,
// so it is also the per-line serialization table (busyUntil ≤ cycle, or no
// record at all, means the line is free).
type lineWait struct {
	line uint32
	// busyUntil is the first cycle at which the line services an atomic
	// again. A record with busyUntil beyond the last Tick sits in the
	// queue's wake list.
	busyUntil int64
	// slots is the set of queue slots holding atomics on this line (never
	// longer than l2Queue.live; grown when a slot beyond it is added), n its
	// population.
	slots []uint64
	n     int
}

// l2Entry is one segment waiting in the L2 service queue.
type l2Entry struct {
	seg *segment
	// rec is the line record of an atomic; nil marks a plain access, which
	// is always serviceable.
	rec *lineWait
	sm  int32
}

// l2Queue holds the segments awaiting L2 service in arrival order and
// indexes them by what the arbitration walk asks of them. Slots are
// stable: an entry keeps its slot from push to service, a serviced entry
// leaves a hole, and holes are closed by compact when the slot array
// fills. Arrival order is slot order.
//
// The walk (System.scanL2) must visit, in arrival order from a rotating
// start, every queued entry and either service it or charge its SM a
// retry. An atomic on a busy line can only be charged, and it stays that
// way until the line's busy period ends, so the queue keeps the
// serviceable entries in a set of their own: a walk touches those, and
// counts the rest through pop instead of looking at them.
type l2Queue struct {
	ent []l2Entry
	// live is the set of occupied slots; ready ⊆ live is the set whose
	// entry is a plain access or an atomic whose line was free at the last
	// Tick. Both are bitsets over ent, one word per 64 slots.
	live, ready []uint64
	// tail is the next slot to fill: every slot at or above it is empty.
	tail      int
	n, nReady int
	// pop is the number of queued entries per SM.
	pop []int64

	// lines maps a cache line to its record. wake lists the busy records in
	// order of service, which — AtomLat being one constant — is order of
	// expiry: its head is the next line to free up.
	lines   map[uint32]*lineWait
	wake    fifo[*lineWait]
	recFree []*lineWait
}

func newL2Queue(numSMs int) l2Queue {
	return l2Queue{
		ent:   make([]l2Entry, 64),
		live:  make([]uint64, 1),
		ready: make([]uint64, 1),
		pop:   make([]int64, numSMs),
		lines: make(map[uint32]*lineWait),
	}
}

// push appends the segment. An atomic joins its line's record and is
// serviceable only if the line is free as of cycle (the Tick in progress).
func (q *l2Queue) push(seg *segment, cycle int64) {
	if q.tail == len(q.ent) {
		q.makeRoom()
	}
	slot := q.tail
	q.tail++
	e := &q.ent[slot]
	e.seg, e.rec, e.sm = seg, nil, int32(seg.req.SM)
	w, b := slot>>6, uint64(1)<<(slot&63)
	q.live[w] |= b
	q.n++
	q.pop[e.sm]++
	if seg.req.Op.IsAtomic() {
		r := q.lines[seg.line]
		if r == nil {
			r = q.newRecord(seg.line)
		}
		if w >= len(r.slots) {
			r.slots = append(r.slots, make([]uint64, len(q.live)-len(r.slots))...)
		}
		e.rec = r
		r.slots[w] |= b
		r.n++
		if r.busyUntil > cycle {
			return // parked until the line's wake
		}
	}
	q.ready[w] |= b
	q.nReady++
}

func (q *l2Queue) newRecord(line uint32) *lineWait {
	var r *lineWait
	if n := len(q.recFree); n > 0 {
		r = q.recFree[n-1]
		q.recFree[n-1] = nil
		q.recFree = q.recFree[:n-1]
		r.line, r.busyUntil = line, 0
	} else {
		r = &lineWait{line: line, slots: make([]uint64, len(q.live))}
	}
	q.lines[line] = r
	return r
}

// makeRoom is called with the slot array full: it closes the holes when
// at least half the slots are holes, and doubles every set otherwise, so
// the cost per push is constant either way.
func (q *l2Queue) makeRoom() {
	if 2*q.n <= len(q.ent) {
		q.compact()
		return
	}
	q.ent = append(q.ent, make([]l2Entry, len(q.ent))...)
	q.live = append(q.live, make([]uint64, len(q.live))...)
	q.ready = append(q.ready, make([]uint64, len(q.ready))...)
}

// compact moves the live entries down over the holes, in place and in
// order. Going upward, an entry's new slot is at or below its old one and
// below every slot not yet moved, so each set can be re-pointed one bit at
// a time.
func (q *l2Queue) compact() {
	d := 0
	for s := 0; s < q.tail; s++ {
		sw, sb := s>>6, uint64(1)<<(s&63)
		if q.live[sw]&sb == 0 {
			continue
		}
		if s != d {
			dw, db := d>>6, uint64(1)<<(d&63)
			e := &q.ent[s]
			q.ent[d], *e = *e, l2Entry{}
			q.live[sw] &^= sb
			q.live[dw] |= db
			if q.ready[sw]&sb != 0 {
				q.ready[sw] &^= sb
				q.ready[dw] |= db
			}
			if r := q.ent[d].rec; r != nil {
				r.slots[sw] &^= sb
				r.slots[dw] |= db
			}
		}
		d++
	}
	q.tail = d
}

// selectLive returns the slot of the entry at the given rank in arrival
// order (0 ≤ rank < n).
func (q *l2Queue) selectLive(rank int) int {
	if q.n == q.tail {
		return rank // no holes
	}
	for w, m := range q.live {
		if c := bits.OnesCount64(m); rank >= c {
			rank -= c
			continue
		}
		for ; rank > 0; rank-- {
			m &= m - 1
		}
		return w<<6 | bits.TrailingZeros64(m)
	}
	panic("mem: L2 queue rank beyond its population")
}

// serve removes the serviceable entry at slot and returns its segment. An
// atomic occupies its line until busyUntil: the line was free, so every
// other atomic queued on it was serviceable and now is not.
func (q *l2Queue) serve(slot int, busyUntil int64) *segment {
	e := &q.ent[slot]
	seg := e.seg
	w, b := slot>>6, uint64(1)<<(slot&63)
	q.live[w] &^= b
	q.ready[w] &^= b
	q.n--
	q.nReady--
	q.pop[e.sm]--
	if r := e.rec; r != nil {
		r.slots[w] &^= b
		r.n--
		r.busyUntil = busyUntil
		if r.n > 0 {
			for i, m := range r.slots {
				q.ready[i] &^= m
			}
			q.nReady -= r.n
		}
		q.wake.push(r)
	}
	*e = l2Entry{} // the segment is not pinned
	if q.n == 0 {
		q.tail = 0
	}
	return seg
}

// wakeLines ends the busy period of every line due by cycle: its queued
// atomics become serviceable, and a record nobody waits on is retired.
// Lines expire only between cycles, so Tick calls this once, ahead of the
// walk.
func (q *l2Queue) wakeLines(cycle int64) {
	for q.wake.len() > 0 && q.wake.items()[0].busyUntil <= cycle {
		r := q.wake.pop()
		if r.n == 0 {
			delete(q.lines, r.line)
			q.recFree = append(q.recFree, r)
			continue
		}
		for i, m := range r.slots {
			q.ready[i] |= m
		}
		q.nReady += r.n
	}
}

// audit recomputes the index from the entries alone and reports every
// disagreement with what push, serve, wakeLines and compact maintained.
// cycle is the last Tick's.
func (q *l2Queue) audit(cycle int64) []string {
	var out []string
	drift := func(format string, args ...any) {
		out = append(out, "l2.index-drift: "+fmt.Sprintf(format, args...))
	}
	if len(q.live) != len(q.ready) || 64*len(q.live) != len(q.ent) {
		drift("%d slots indexed by %d live and %d ready words", len(q.ent), len(q.live), len(q.ready))
		return out
	}
	n, nReady, atomics := 0, 0, 0
	pop := make([]int64, len(q.pop))
	for slot := range q.ent {
		e := &q.ent[slot]
		w, b := slot>>6, uint64(1)<<(slot&63)
		live, ready := q.live[w]&b != 0, q.ready[w]&b != 0
		if live != (e.seg != nil) || (live && slot >= q.tail) {
			drift("slot %d: live=%v, segment present=%v, tail %d", slot, live, e.seg != nil, q.tail)
		}
		if e.seg == nil {
			if ready {
				drift("slot %d: empty but marked serviceable", slot)
			}
			continue
		}
		n++
		pop[e.sm]++
		if int(e.sm) != e.seg.req.SM {
			drift("slot %d: entry of sm%d filed under sm%d", slot, e.seg.req.SM, e.sm)
		}
		r := e.rec
		if (r != nil) != e.seg.req.Op.IsAtomic() {
			drift("slot %d: %v has line record=%v", slot, e.seg.req.Op, r != nil)
		}
		want := true
		if r != nil {
			atomics++
			if q.lines[e.seg.line] != r || r.line != e.seg.line {
				drift("slot %d: atomic on line %d holds the record of line %d", slot, e.seg.line, r.line)
			}
			if w >= len(r.slots) || r.slots[w]&b == 0 {
				drift("slot %d: atomic missing from the wait set of line %d", slot, r.line)
			}
			want = r.busyUntil <= cycle
		}
		if ready != want {
			drift("slot %d: serviceable=%v but marked %v at cycle %d", slot, want, ready, cycle)
		}
		if ready {
			nReady++
		}
	}
	if n != q.n || nReady != q.nReady {
		drift("%d queued / %d serviceable, counted as %d / %d", n, nReady, q.n, q.nReady)
	}
	for sm := range pop {
		if pop[sm] != q.pop[sm] {
			drift("sm%d: %d queued, counted as %d", sm, pop[sm], q.pop[sm])
		}
	}
	// The wait sets partition the queued atomics: every atomic is in the set
	// of its own line (above), and the sets hold nothing else if together
	// they are no larger. The wake list is exactly the busy records, each
	// once, in order of expiry.
	waiters, busy := 0, 0
	for line, r := range q.lines {
		set := 0
		for _, m := range r.slots {
			set += bits.OnesCount64(m)
		}
		if r.line != line || r.n != set {
			drift("line %d: record of line %d counts %d waiters, holds %d", line, r.line, r.n, set)
		}
		waiters += set
		if r.busyUntil > cycle {
			busy++
		} else if r.n == 0 {
			drift("line %d: free and unwaited, yet on record", line)
		}
	}
	if waiters != atomics {
		drift("%d atomics queued, %d slots in the wait sets", atomics, waiters)
	}
	var last int64
	for _, r := range q.wake.items() {
		if q.lines[r.line] != r || r.busyUntil <= cycle || r.busyUntil < last {
			drift("wake list: line %d, due %d after a line due %d, at cycle %d", r.line, r.busyUntil, last, cycle)
		}
		last = r.busyUntil
	}
	if busy != q.wake.len() {
		drift("%d busy lines, %d on the wake list", busy, q.wake.len())
	}
	return out
}

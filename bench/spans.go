package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public functions (never from inside internal/*).
type span struct {
	Name   string
	Parent int   // index into the lane's spans, -1 for a root
	ID     int64 // one id per engine run, request or render
	Start  time.Duration
	End    time.Duration
}

// lane is one span stack: a pass of the harness worker or of the client
// owns one. A nil lane records nothing, which is how
// the untraced run and the traced run share one code path.
type lane struct {
	tid   int
	t0    time.Time
	spans []span
	stack []int
}

// begin opens a span under the lane's innermost open span.
func (l *lane) begin(name string, id int64) {
	if l == nil {
		return
	}
	parent := -1
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	l.stack = append(l.stack, len(l.spans))
	l.spans = append(l.spans, span{Name: name, Parent: parent, ID: id, Start: time.Since(l.t0)})
}

// end closes the innermost open span.
func (l *lane) end() {
	if l == nil {
		return
	}
	i := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	l.spans[i].End = time.Since(l.t0)
}

// recorder keeps every lane's spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	lanes []*lane
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// lane returns a fresh lane; a nil recorder hands out nil lanes.
func (r *recorder) lane() *lane {
	if r == nil {
		return nil
	}
	l := &lane{tid: len(r.lanes), t0: r.t0}
	r.lanes = append(r.lanes, l)
	return l
}

// selfTimes returns, per span name, the summed self time (duration minus
// the time its direct children cover) and the summed root duration, so
// that the self times of all names add up to the root total.
func (r *recorder) selfTimes() (self map[string]time.Duration, roots time.Duration) {
	self = map[string]time.Duration{}
	for _, l := range r.lanes {
		child := make([]time.Duration, len(l.spans))
		for _, s := range l.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			} else {
				roots += s.End - s.Start
			}
		}
		for i, s := range l.spans {
			self[s.Name] += s.End - s.Start - child[i]
		}
	}
	return self, roots
}

// count returns the number of recorded spans.
func (r *recorder) count() int {
	n := 0
	for _, l := range r.lanes {
		n += len(l.spans)
	}
	return n
}

// maxTraceEvents caps the trace file: a service run records one span per
// request, and a viewer gains nothing from the millionth of them.
const maxTraceEvents = 60000

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X"
// complete events, one tid per lane), loadable in chrome://tracing or
// ui.perfetto.dev.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var evs []event
	for _, l := range r.lanes {
		for i, s := range l.spans {
			if len(evs) == maxTraceEvents {
				break
			}
			evs = append(evs, event{Name: s.Name, Ph: "X",
				TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
				PID: 1, TID: l.tid, Args: map[string]any{"id": s.ID, "span": i, "parent": s.Parent}})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

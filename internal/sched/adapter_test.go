package sched_test

import (
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/core"
	"warpsched/internal/sched"
)

// TestPickClosureAdapters is the one caller of Policy.Pick outside the
// benchmark's probes: while the five closure adapters exist (the four
// policies here, core.Wrapped from the package that can import both), each
// must ask its closure about the unit's slots only, in ascending order, and
// decide exactly as PickMask does on the set the closure describes.
func TestPickClosureAdapters(t *testing.T) {
	slots := []int{8, 9, 10, 11, 12, 13, 14, 15}
	params := sched.Params{GTORotatePeriod: 10, WaSP: config.WaSP{GroupSize: 2, RotatePeriod: 10}}
	build := map[string]func() sched.Policy{}
	for _, kind := range config.AllSchedulers {
		build[string(kind)] = func() sched.Policy {
			wm := make([]sched.WarpMetrics, 16)
			for s := range wm {
				wm[s] = sched.WarpMetrics{Issued: 1, ResidentCycles: int64(1 + s%3), EstRemaining: 10}
			}
			p, err := sched.New(kind, slots, wm, params)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	build["GTO+BOWS"] = func() sched.Policy {
		w := core.Wrap(sched.NewGTO(slots, 10), core.NewBOWS(config.FixedBOWS(5), nil, 16))
		w.OnSIB(9)
		w.OnSIB(12)
		return w
	}
	steps := []struct {
		cycle int64
		ready []int
	}{
		{0, []int{9, 12}}, // under BOWS: only backed-off warps are ready
		{1, []int{8, 9, 10, 11, 12, 13, 14, 15}},
		{2, []int{15}},
		{3, nil},
		{12, []int{9, 10, 14}}, // a rotation period later
		{13, []int{9, 10, 14}},
		{25, []int{8, 12}},
		{26, []int{12}},
	}
	for name, mk := range build {
		byClosure, byMask := mk(), mk()
		for _, st := range steps {
			var set uint64
			for _, s := range st.ready {
				set |= 1 << uint(s)
			}
			var asked []int
			got := byClosure.Pick(st.cycle, func(s int) bool {
				asked = append(asked, s)
				return set>>uint(s)&1 != 0
			})
			if len(asked) != len(slots) {
				t.Fatalf("%s cycle %d: closure asked about %v, want exactly the unit's slots %v", name, st.cycle, asked, slots)
			}
			for i, s := range asked {
				if s != slots[i] {
					t.Fatalf("%s cycle %d: closure asked about %v, want %v in order", name, st.cycle, asked, slots)
				}
			}
			want := byMask.PickMask(st.cycle, set)
			if got != want {
				t.Fatalf("%s cycle %d ready %v: Pick = %d, PickMask = %d", name, st.cycle, st.ready, got, want)
			}
			if (got < 0) != (len(st.ready) == 0) && name != "GTO+BOWS" {
				t.Fatalf("%s cycle %d ready %v: pick = %d", name, st.cycle, st.ready, got)
			}
			if got >= 0 {
				byClosure.OnIssue(got, st.cycle)
				byMask.OnIssue(got, st.cycle)
			}
		}
	}
}

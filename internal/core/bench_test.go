package core

import (
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/sched"
)

var benchSink int

// BenchmarkWrappedPickMask is set up exactly as bench/probes_sim.go's
// core.bows_pick_ns probe is — GTO over a 48-slot unit, every even slot
// backed off, every fourth-plus-one slot ready, so the base policy picks
// among the warps the wrapper's filter leaves — but calls PickMask, which
// is what the engine calls. Until the probe is repointed it times the
// closure adapter and reads higher than this.
func BenchmarkWrappedPickMask(b *testing.B) {
	const n = 48
	slots := make([]int, n)
	for i := range slots {
		slots[i] = i
	}
	w := Wrap(sched.NewGTO(slots, 50000), NewBOWS(config.DefaultBOWS(), nil, n))
	var ready uint64
	for s := 0; s < n; s++ {
		if s%2 == 0 {
			w.OnSIB(s)
		}
		if s%4 == 1 {
			ready |= 1 << uint(s)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = w.PickMask(int64(i+1), ready)
	}
}

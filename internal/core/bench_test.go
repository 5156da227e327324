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

// benchOnSetp feeds d the setp stream of bench/probes_sim.go's
// core.*_onsetp_ns probes: 48 slots in turn, five PCs, the profiled lane
// 0, and operands that repeat every eight calls.
func benchOnSetp(b *testing.B, d Detector) {
	const slots = 48
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		u := uint32(i)
		d.OnSetp(int(u%slots), int32(8+4*(u%5)), 0, u&7, 3)
	}
}

func BenchmarkTAGESIBOnSetp(b *testing.B) { benchOnSetp(b, NewTAGESIB(config.DefaultTAGE(), 48)) }

func BenchmarkDDOSOnSetp(b *testing.B) { benchOnSetp(b, NewDDOS(config.DefaultDDOS(), 48)) }

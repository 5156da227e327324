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

// benchOnBranch feeds d the branch stream of bench/probes_sim.go's
// core.*_onbranch_ns probes, after the setp stream above has left every
// slot spinning: 48 slots in turn, five backward-branch PCs, every fifth
// call annotated a ground-truth SIB. All five PCs confirm within the
// first calls, so the loop times the steady state of a spinning kernel.
func benchOnBranch(b *testing.B, d Detector) {
	const slots = 48
	for i := uint32(1); i <= 4096; i++ {
		d.OnSetp(int(i%slots), int32(8+4*(i%5)), 0, i&7, 3)
	}
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		c := int64(i)
		d.OnBranch(int(c%slots), int32(8+4*(c%5)), c%5 == 0, c)
	}
}

func BenchmarkTAGESIBOnBranch(b *testing.B) { benchOnBranch(b, NewTAGESIB(config.DefaultTAGE(), 48)) }

func BenchmarkDDOSOnBranch(b *testing.B) { benchOnBranch(b, NewDDOS(config.DefaultDDOS(), 48)) }

package sched

import (
	"testing"

	"warpsched/internal/config"
)

// The benchmarks are set up exactly as bench/probes_sim.go's sched probes
// are — a 48-slot unit, every fourth warp ready, one pick and the OnIssue
// that follows it — but call PickMask, which is what the engine calls. From
// the PR that introduced PickMask until the probes are repointed, the traced
// sched.pick_*_ns time the closure adapter (48 closure calls to build the
// mask) and read higher than these.
const benchSlots = 48

var benchSink int

func benchPolicy(b *testing.B, kind config.SchedulerKind) Policy {
	slots := make([]int, benchSlots)
	wm := make([]WarpMetrics, benchSlots)
	for i := range slots {
		slots[i] = i
		wm[i] = WarpMetrics{Resident: true, Issued: int64(10 + i), ResidentCycles: int64(100 + 7*i), EstRemaining: int64(1000 - i)}
	}
	p, err := New(kind, slots, wm, Params{GTORotatePeriod: 50000, WaSP: config.DefaultWaSP()})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func benchPickMask(b *testing.B, kind config.SchedulerKind) {
	p := benchPolicy(b, kind)
	var ready uint64
	for s := 0; s < benchSlots; s += 4 {
		ready |= 1 << uint(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle := int64(i + 1)
		s := p.PickMask(cycle, ready)
		if s >= 0 {
			p.OnIssue(s, cycle)
		}
		benchSink = s
	}
}

func BenchmarkPickMaskLRR(b *testing.B)  { benchPickMask(b, config.LRR) }
func BenchmarkPickMaskGTO(b *testing.B)  { benchPickMask(b, config.GTO) }
func BenchmarkPickMaskCAWA(b *testing.B) { benchPickMask(b, config.CAWA) }
func BenchmarkPickMaskWaSP(b *testing.B) { benchPickMask(b, config.WASP) }

// BenchmarkPickMaskIdle is a GTO pick over an empty ready set.
func BenchmarkPickMaskIdle(b *testing.B) {
	p := benchPolicy(b, config.GTO)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = p.PickMask(int64(i+1), 0)
	}
}

package mem

import (
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/isa"
)

// BenchmarkL2Storm is the lock-retry storm the indexed L2 queue exists
// for: 48 warps on three SMs spin on one cache line — every CAS that
// completes is issued again, as a failed acquire is — so the queue holds
// some 45 atomics that can only be NACKed while the line is busy, and a
// store every eighth cycle keeps the all-blocked fast path from being the
// whole story. One iteration is one Tick.
func BenchmarkL2Storm(b *testing.B) {
	const sms, warps = 3, 16
	s := NewSystem(config.GTX480().Mem, sms, warps+1, 4096)
	var retry func(*Request)
	retry = func(r *Request) { s.Port(r.SM).Enqueue(r) }
	for sm := 0; sm < sms; sm++ {
		for w := 0; w < warps; w++ {
			retry(&Request{SM: sm, WarpSlot: w, Op: isa.OpAtomCAS, Done: retry,
				Accesses: []Access{{Addr: 512 + uint32(w), V1: 1, V2: 2}}})
		}
	}
	var free []*Request
	release := func(r *Request) { free = append(free, r) }
	for i := 0; i < 8; i++ {
		release(&Request{SM: i % sms, WarpSlot: warps, Op: isa.OpSt, Done: release,
			Accesses: []Access{{Addr: 1024 + uint32(i)*isa.LineWords}}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for c := int64(0); c < int64(b.N); c++ {
		if c%8 == 0 && len(free) > 0 {
			r := free[len(free)-1]
			free = free[:len(free)-1]
			s.Port(r.SM).Enqueue(r)
		}
		s.Tick(c)
	}
	b.StopTimer()
	var retries int64
	for sm := 0; sm < sms; sm++ {
		retries += s.Stats(sm).AtomRetries
	}
	b.ReportMetric(float64(retries)/float64(b.N), "nacks/op")
}

// BenchmarkL2Uncontended is the traffic the index must not tax: one store
// a cycle, each to a line of its own, so the queue holds one or two
// serviceable entries and nothing is ever blocked. One iteration is one
// Tick.
func BenchmarkL2Uncontended(b *testing.B) {
	s := NewSystem(config.GTX480().Mem, 1, 1, 1<<16)
	var free []*Request
	release := func(r *Request) { free = append(free, r) }
	for i := 0; i < 256; i++ {
		release(&Request{Op: isa.OpSt, Done: release, Accesses: []Access{{}}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for c := int64(0); c < int64(b.N); c++ {
		if n := len(free); n > 0 && s.Port(0).CanAccept(1) {
			r := free[n-1]
			free = free[:n-1]
			r.Accesses[0].Addr = uint32(c) % 2048 * isa.LineWords
			s.Port(0).Enqueue(r)
		}
		s.Tick(c)
	}
}

// BenchmarkEventWheel is the completion wheel alone, at the load of a busy
// Fermi memory system: some 120 completions in flight, each scheduled at
// one of the configured latencies — so several fall due on the same cycle
// — and fired when its cycle comes. One iteration is one cycle, which
// fires what is due and schedules one completion.
func BenchmarkEventWheel(b *testing.B) {
	cfg := config.GTX480().Mem
	s := NewSystem(cfg, 1, 1, 64)
	lats := []int64{cfg.L1HitLat, cfg.L2Lat, cfg.DRAMLat, cfg.L2Lat}
	free := make([]*segment, 0, 512)
	for i := 0; i < cap(free); i++ {
		free = append(free, &segment{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for c := int64(0); c < int64(b.N); c++ {
		for seg := s.events.due(c); seg != nil; seg = s.events.due(c) {
			free = append(free, seg)
		}
		seg := free[len(free)-1]
		free = free[:len(free)-1]
		s.cycle = c
		s.schedule(c+lats[c&3], evFinish, seg)
	}
}

// BenchmarkL1MissStream is the L1 miss path: a warp-wide load of a line
// no load touched before every cycle the LSQ has room, each followed by a
// second load of the same line that merges onto its MSHR, all of them
// served from DRAM. One iteration is one Tick.
func BenchmarkL1MissStream(b *testing.B) {
	const words = 1 << 20
	s := NewSystem(config.GTX480().Mem, 1, 48, words)
	var free []*Request
	release := func(r *Request) { free = append(free, r) }
	for i := 0; i < 96; i++ {
		r := &Request{WarpSlot: i % 48, Op: isa.OpLd, Done: release, Accesses: make([]Access, 32)}
		for l := range r.Accesses {
			r.Accesses[l].Lane = l
		}
		release(r)
	}
	line := uint32(0)
	b.ReportAllocs()
	b.ResetTimer()
	for c := int64(0); c < int64(b.N); c++ {
		if n := len(free); n >= 2 && s.Port(0).CanAccept(2) {
			base := line % (words / isa.LineWords) * isa.LineWords
			line++
			for _, r := range free[n-2:] {
				for l := range r.Accesses {
					r.Accesses[l].Addr = base + uint32(l)
				}
				s.Port(0).Enqueue(r)
			}
			free = free[:n-2]
		}
		s.Tick(c)
	}
	b.StopTimer()
	st := s.Stats(0)
	b.ReportMetric(float64(st.MSHRMerges)/float64(b.N), "merges/op")
}

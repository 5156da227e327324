package mem

import (
	"testing"
	"testing/quick"

	"warpsched/internal/config"
	"warpsched/internal/isa"
	"warpsched/internal/stats"
)

func testMemCfg() config.Memory {
	return config.Memory{
		L1KB: 16, L1Assoc: 4, L1HitLat: 8, L1MSHRs: 8,
		L2KB: 64, L2Assoc: 8, L2Lat: 20, L2Banks: 2,
		DRAMLat: 50, DRAMBw: 2, AtomLat: 4, AtomCost: 1,
		LSQDepth: 16, MaxPerWarp: 2,
	}
}

func newTestSystem(words int) *System {
	return NewSystem(testMemCfg(), 2, 8, words)
}

// runUntil ticks the system until the condition holds or maxCycles pass.
func runUntil(t *testing.T, s *System, cond func() bool, maxCycles int64) int64 {
	t.Helper()
	for c := int64(0); c < maxCycles; c++ {
		s.Tick(c)
		if cond() {
			return c
		}
	}
	t.Fatalf("condition not reached in %d cycles", maxCycles)
	return 0
}

func TestLoadReturnsStoredData(t *testing.T) {
	s := newTestSystem(1024)
	s.Write(100, 42)
	done := false
	req := &Request{
		SM: 0, WarpSlot: 0, Op: isa.OpLd,
		Accesses: []Access{{Lane: 0, Addr: 100}},
		Done:     func(*Request) { done = true },
	}
	s.Port(0).Enqueue(req)
	lat := runUntil(t, s, func() bool { return done }, 1000)
	if req.Accesses[0].Result != 42 {
		t.Fatalf("load result = %d, want 42", req.Accesses[0].Result)
	}
	// A cold load must cost at least L2 latency.
	if lat < testMemCfg().L2Lat {
		t.Fatalf("cold load completed in %d cycles, faster than L2", lat)
	}
}

func TestL1HitIsFasterAndReturnsData(t *testing.T) {
	s := newTestSystem(1024)
	s.Write(64, 7)
	load := func() (int64, uint32) {
		done := false
		req := &Request{
			SM: 0, Op: isa.OpLd,
			Accesses: []Access{{Lane: 0, Addr: 64}},
			Done:     func(*Request) { done = true },
		}
		start := int64(0)
		s.Port(0).Enqueue(req)
		var c int64
		for c = start; !done && c-start < 1000; c++ {
			s.Tick(c)
		}
		return c - start, req.Accesses[0].Result
	}
	cold, v1 := load()
	warm, v2 := load()
	if v1 != 7 || v2 != 7 {
		t.Fatalf("load values %d %d, want 7", v1, v2)
	}
	if warm >= cold {
		t.Fatalf("L1 hit (%d cycles) not faster than cold miss (%d)", warm, cold)
	}
	if got := s.Stats(0).L1Hits; got != 1 {
		t.Fatalf("L1 hits = %d, want 1", got)
	}
}

func TestVolatileLoadBypassesL1(t *testing.T) {
	s := newTestSystem(1024)
	s.Write(64, 1)
	run := func(vol bool) uint32 {
		done := false
		req := &Request{
			SM: 0, Op: isa.OpLd, Vol: vol,
			Accesses: []Access{{Lane: 0, Addr: 64}},
			Done:     func(*Request) { done = true },
		}
		s.Port(0).Enqueue(req)
		runUntil(t, s, func() bool { return done }, 1000)
		return req.Accesses[0].Result
	}
	run(false) // warm L1 on SM 0
	// Another SM's store goes straight to L2 — SM 0's L1 is now stale.
	doneSt := false
	st := &Request{
		SM: 1, Op: isa.OpSt,
		Accesses: []Access{{Lane: 0, Addr: 64, V1: 99}},
		Done:     func(*Request) { doneSt = true },
	}
	s.Port(1).Enqueue(st)
	runUntil(t, s, func() bool { return doneSt }, 1000)
	if got := run(true); got != 99 {
		t.Fatalf("volatile load = %d, want fresh 99", got)
	}
	if hits := s.Stats(0).L1Hits; hits != 0 {
		t.Fatalf("volatile load must not hit L1 (hits=%d)", hits)
	}
}

func TestStoreInvalidatesLocalL1(t *testing.T) {
	s := newTestSystem(1024)
	s.Write(64, 1)
	done := false
	ld := &Request{SM: 0, Op: isa.OpLd,
		Accesses: []Access{{Lane: 0, Addr: 64}},
		Done:     func(*Request) { done = true }}
	s.Port(0).Enqueue(ld)
	runUntil(t, s, func() bool { return done }, 1000)

	done = false
	st := &Request{SM: 0, Op: isa.OpSt,
		Accesses: []Access{{Lane: 0, Addr: 64, V1: 5}},
		Done:     func(*Request) { done = true }}
	s.Port(0).Enqueue(st)
	runUntil(t, s, func() bool { return done }, 1000)
	if s.Read(64) != 5 {
		t.Fatalf("store did not commit: %d", s.Read(64))
	}

	done = false
	ld2 := &Request{SM: 0, Op: isa.OpLd,
		Accesses: []Access{{Lane: 0, Addr: 64}},
		Done:     func(*Request) { done = true }}
	s.Port(0).Enqueue(ld2)
	runUntil(t, s, func() bool { return done }, 1000)
	if ld2.Accesses[0].Result != 5 {
		t.Fatalf("post-store load = %d, want 5 (write-evict violated)", ld2.Accesses[0].Result)
	}
}

func TestCoalescing(t *testing.T) {
	accs := make([]Access, 32)
	for i := range accs {
		accs[i] = Access{Lane: i, Addr: uint32(i)} // one line
	}
	if got := Coalesce(accs); got != 1 {
		t.Fatalf("fully coalesced = %d segments, want 1", got)
	}
	for i := range accs {
		accs[i].Addr = uint32(i * isa.LineWords) // one line each
	}
	if got := Coalesce(accs); got != 32 {
		t.Fatalf("fully diverged = %d segments, want 32", got)
	}
}

func TestAtomicCASLaneOrderAndSerialization(t *testing.T) {
	// All 32 lanes CAS the same lock word: exactly the lowest lane wins.
	s := newTestSystem(1024)
	accs := make([]Access, 32)
	for i := range accs {
		accs[i] = Access{Lane: i, Addr: 512, V1: 0, V2: uint32(100 + i), GTID: int32(i)}
	}
	done := false
	req := &Request{SM: 0, Op: isa.OpAtomCAS, Ann: isa.AnnLockAcquire,
		Accesses: accs, Done: func(*Request) { done = true }}
	var ev stats.SyncEvents
	s.AttachSync(0, &ev)
	s.Port(0).Enqueue(req)
	runUntil(t, s, func() bool { return done }, 1000)
	if s.Read(512) != 100 {
		t.Fatalf("lock word = %d, want lane 0's swap 100", s.Read(512))
	}
	for i, a := range req.Accesses {
		want := uint32(0)
		if i > 0 {
			want = 100 // later lanes observe lane 0's value
		}
		if a.Result != want {
			t.Fatalf("lane %d old = %d, want %d", i, a.Result, want)
		}
	}
	if ev.LockSuccess != 1 || ev.IntraWarpFail != 31 || ev.InterWarpFail != 0 {
		t.Fatalf("classification = %+v, want 1 success, 31 intra-warp fails", ev)
	}
	if s.LockOwner(512) != 0 {
		t.Fatalf("lock owner = %d, want 0", s.LockOwner(512))
	}
}

func TestInterWarpFailClassification(t *testing.T) {
	s := newTestSystem(1024)
	var ev0, ev1 stats.SyncEvents
	s.AttachSync(0, &ev0)
	s.AttachSync(1, &ev1)
	acquire := func(sm int, gtid int32) {
		done := false
		req := &Request{SM: sm, Op: isa.OpAtomCAS, Ann: isa.AnnLockAcquire,
			Accesses: []Access{{Lane: 0, Addr: 512, V1: 0, V2: 1, GTID: gtid}},
			Done:     func(*Request) { done = true }}
		s.Port(sm).Enqueue(req)
		runUntil(t, s, func() bool { return done }, 1000)
	}
	acquire(0, 0)  // wins
	acquire(1, 64) // different warp (gtid 64/32 = warp 2) → inter-warp fail
	if ev0.LockSuccess != 1 {
		t.Fatalf("first acquire should succeed: %+v", ev0)
	}
	if ev1.InterWarpFail != 1 || ev1.IntraWarpFail != 0 {
		t.Fatalf("second acquire should inter-warp fail: %+v", ev1)
	}
}

func TestAtomicExchReleaseClearsOwner(t *testing.T) {
	s := newTestSystem(1024)
	var ev stats.SyncEvents
	s.AttachSync(0, &ev)
	do := func(op isa.Op, ann isa.Ann, v1 uint32) {
		done := false
		req := &Request{SM: 0, Op: op, Ann: ann,
			Accesses: []Access{{Lane: 0, Addr: 512, V1: v1, V2: 1, GTID: 5}},
			Done:     func(*Request) { done = true }}
		s.Port(0).Enqueue(req)
		runUntil(t, s, func() bool { return done }, 1000)
	}
	do(isa.OpAtomCAS, isa.AnnLockAcquire, 0)
	if s.LockOwner(512) != 5 {
		t.Fatalf("owner = %d", s.LockOwner(512))
	}
	do(isa.OpAtomExch, isa.AnnLockRelease, 0)
	if s.LockOwner(512) != -1 {
		t.Fatalf("owner after release = %d, want -1", s.LockOwner(512))
	}
	if ev.LockRelease != 1 {
		t.Fatalf("releases = %d", ev.LockRelease)
	}
}

func TestAtomicAddAndMax(t *testing.T) {
	s := newTestSystem(1024)
	do := func(op isa.Op, v1 uint32) uint32 {
		done := false
		req := &Request{SM: 0, Op: op,
			Accesses: []Access{{Lane: 0, Addr: 700, V1: v1}},
			Done:     func(*Request) { done = true }}
		s.Port(0).Enqueue(req)
		runUntil(t, s, func() bool { return done }, 1000)
		return req.Accesses[0].Result
	}
	if old := do(isa.OpAtomAdd, 5); old != 0 {
		t.Fatalf("atomAdd old = %d", old)
	}
	if s.Read(700) != 5 {
		t.Fatalf("after add: %d", s.Read(700))
	}
	do(isa.OpAtomMax, 3) // 3 < 5: unchanged
	if s.Read(700) != 5 {
		t.Fatalf("max(5,3) = %d", s.Read(700))
	}
	do(isa.OpAtomMax, 9)
	if s.Read(700) != 9 {
		t.Fatalf("max(5,9) = %d", s.Read(700))
	}
}

func TestOutstandingAndQuiescent(t *testing.T) {
	s := newTestSystem(1024)
	if !s.Quiescent() {
		t.Fatal("fresh system should be quiescent")
	}
	done := false
	req := &Request{SM: 0, WarpSlot: 3, Op: isa.OpLd,
		Accesses: []Access{{Lane: 0, Addr: 0}},
		Done:     func(*Request) { done = true }}
	s.Port(0).Enqueue(req)
	if s.Port(0).Outstanding(3) != 1 {
		t.Fatal("outstanding not tracked")
	}
	if s.Quiescent() {
		t.Fatal("system with in-flight load cannot be quiescent")
	}
	runUntil(t, s, func() bool { return done }, 1000)
	if s.Port(0).Outstanding(3) != 0 {
		t.Fatal("outstanding not cleared")
	}
	if !s.Quiescent() {
		t.Fatal("drained system should be quiescent")
	}
}

func TestEmptyRequestCompletesImmediately(t *testing.T) {
	s := newTestSystem(64)
	done := false
	s.Port(0).Enqueue(&Request{SM: 0, Op: isa.OpLd, Done: func(*Request) { done = true }})
	if !done {
		t.Fatal("fully predicated-off request must complete at enqueue")
	}
}

// TestCacheVsReferenceModel property-checks the tag array against a map-
// based reference for an arbitrary access stream.
func TestCacheVsReferenceModel(t *testing.T) {
	f := func(lines []uint16) bool {
		c := newCache(4, 2) // 4 KB, 2-way: 32 lines, 16 sets
		type entry struct {
			line  uint32
			stamp int
		}
		ref := make(map[int][]entry) // set -> entries (≤ assoc)
		stamp := 0
		for _, l16 := range lines {
			line := uint32(l16 % 64)
			set := int(line) % 16
			stamp++
			// reference lookup
			refHit := false
			for i := range ref[set] {
				if ref[set][i].line == line {
					refHit = true
					ref[set][i].stamp = stamp
				}
			}
			hit := c.Lookup(line)
			if hit != refHit {
				return false
			}
			if !hit {
				c.Fill(line)
				es := ref[set]
				if len(es) < 2 {
					es = append(es, entry{line, stamp})
				} else {
					v := 0
					if es[1].stamp < es[0].stamp {
						v = 1
					}
					es[v] = entry{line, stamp}
				}
				ref[set] = es
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newCache(4, 2)
	c.Fill(5)
	if !c.Contains(5) {
		t.Fatal("fill failed")
	}
	c.Invalidate(5)
	if c.Contains(5) {
		t.Fatal("invalidate failed")
	}
	c.Invalidate(5) // idempotent
}

func TestMSHRMergesSameLine(t *testing.T) {
	s := newTestSystem(1024)
	var completions int
	mk := func() *Request {
		return &Request{SM: 0, Op: isa.OpLd,
			Accesses: []Access{{Lane: 0, Addr: 32}},
			Done:     func(*Request) { completions++ }}
	}
	s.Port(0).Enqueue(mk())
	s.Port(0).Enqueue(mk())
	runUntil(t, s, func() bool { return completions == 2 }, 1000)
	// Only one L2 access should have been made for the shared line.
	if got := s.Stats(0).L2Accesses; got != 1 {
		t.Fatalf("L2 accesses = %d, want 1 (MSHR merge)", got)
	}
}

func TestQueueLockBlocksAndGrantsFIFO(t *testing.T) {
	cfg := testMemCfg()
	cfg.QueueLocks = true
	s := NewSystem(cfg, 2, 8, 1024)
	var ev stats.SyncEvents
	s.AttachSync(0, &ev)
	s.AttachSync(1, &ev)

	results := make([]int, 3) // completion order markers
	orderN := 0
	acquire := func(sm int, gtid int32, idx int) *Request {
		req := &Request{SM: sm, Op: isa.OpAtomCAS, Ann: isa.AnnLockAcquire,
			Accesses: []Access{{Lane: 0, Addr: 512, V1: 0, V2: 1, GTID: gtid}},
			Done: func(*Request) {
				orderN++
				results[idx] = orderN
			}}
		s.Port(sm).Enqueue(req)
		return req
	}
	// First acquire wins immediately.
	a0 := acquire(0, 0, 0)
	runUntil(t, s, func() bool { return results[0] != 0 }, 1000)
	if a0.Accesses[0].Result != 0 {
		t.Fatal("first acquire should succeed")
	}
	// Two more acquires park (no failure, no completion).
	a1 := acquire(0, 32, 1)
	a2 := acquire(1, 64, 2)
	for c := int64(1000); c < 2000; c++ {
		s.Tick(c)
	}
	if results[1] != 0 || results[2] != 0 {
		t.Fatal("parked acquires must not complete before release")
	}
	if ev.InterWarpFail != 0 && ev.IntraWarpFail != 0 {
		t.Fatal("queue locks must not record failures")
	}
	if s.Quiescent() {
		t.Fatal("parked lanes must keep the system non-quiescent")
	}
	// Release: the oldest waiter (a1) is granted, then a2 on re-release.
	rel := func(sm int) {
		done := false
		req := &Request{SM: sm, Op: isa.OpAtomExch, Ann: isa.AnnLockRelease,
			Accesses: []Access{{Lane: 0, Addr: 512, V1: 0}},
			Done:     func(*Request) { done = true }}
		s.Port(sm).Enqueue(req)
		runUntil(t, s, func() bool { return done }, 2000)
	}
	rel(0)
	runUntil(t, s, func() bool { return results[1] != 0 }, 2000)
	if results[2] != 0 {
		t.Fatal("second waiter granted out of order")
	}
	if a1.Accesses[0].Result != 0 {
		t.Fatal("granted CAS must observe the free lock")
	}
	if s.LockOwner(512) != 32 {
		t.Fatalf("owner = %d, want 32", s.LockOwner(512))
	}
	rel(0)
	runUntil(t, s, func() bool { return results[2] != 0 }, 2000)
	if a2.Accesses[0].Result != 0 {
		t.Fatal("second grant must also succeed")
	}
	if ev.LockSuccess != 3 {
		t.Fatalf("successes = %d, want 3", ev.LockSuccess)
	}
}

// TestAtomicStormPinned pins the L2 arbitration walk to the numbers the
// per-cycle map-lookup implementation produced: twelve CASes from three
// SMs parked on one line (AtomLat 12, so each service is followed by an
// eleven-cycle span in which every scan NACKs the whole queue — the
// stuck-scan replay — until the line frees and the walk resumes), with a
// store enqueued behind SM 2's CASes that interrupts the first span. The
// per-SM retry counts, the service order and every completion cycle are
// the contract the flat queue, its cached busy-until and the replayed
// NACK tally must keep.
func TestAtomicStormPinned(t *testing.T) {
	cfg := testMemCfg()
	cfg.AtomLat = 12
	s := NewSystem(cfg, 3, 8, 1024)
	type completion struct {
		id    int // sm*10 + warp slot
		cycle int64
	}
	var got []completion
	var now int64
	left := 0
	enqueue := func(sm, slot int, op isa.Op, addr uint32) {
		left++
		s.Port(sm).Enqueue(&Request{SM: sm, WarpSlot: slot, Op: op,
			Accesses: []Access{{Lane: 0, Addr: addr, V1: 0, V2: 1}},
			Done: func(r *Request) {
				left--
				got = append(got, completion{r.SM*10 + r.WarpSlot, now})
			}})
	}
	for slot := 0; slot < 4; slot++ {
		for sm := 0; sm < 3; sm++ {
			enqueue(sm, slot, isa.OpAtomCAS, 512+uint32(sm*4+slot)) // one line
		}
	}
	enqueue(2, 4, isa.OpSt, 900)
	for now = 0; left > 0 && now < 1000; now++ {
		s.Tick(now)
	}
	want := []completion{
		{0, 21}, {24, 25}, {21, 33}, {22, 45}, {3, 57}, {10, 69}, {11, 81},
		{23, 93}, {12, 105}, {1, 117}, {13, 129}, {20, 141}, {2, 153},
	}
	if len(got) != len(want) {
		t.Fatalf("%d completions, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("completion %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	for sm, wantRetries := range []int64{253, 290, 219} {
		if n := s.Stats(sm).AtomRetries; n != wantRetries {
			t.Errorf("sm%d AtomRetries = %d, want %d", sm, n, wantRetries)
		}
	}
}

// TestAtomCostAboveBankCountStillDrains: a machine whose atomic costs
// more tokens than one cycle refills (AtomCost > L2Banks) leaves the
// bucket in debt after each service, so the next cycle's walk covers no
// entry. That is a wait for tokens, not a stuck scan: the queue must keep
// draining as the bucket refills.
func TestAtomCostAboveBankCountStillDrains(t *testing.T) {
	cfg := testMemCfg()
	cfg.AtomCost = 8
	s := NewSystem(cfg, 2, 8, 1024)
	left := 4
	for i := 0; i < 4; i++ {
		sm := i % 2
		s.Port(sm).Enqueue(&Request{SM: sm, WarpSlot: i / 2, Op: isa.OpAtomAdd,
			Accesses: []Access{{Lane: 0, Addr: uint32(64 * (i + 1)), V1: 1}},
			Done:     func(*Request) { left-- }})
	}
	runUntil(t, s, func() bool { return left == 0 }, 5000)
	if n := s.Stats(0).AtomRetries + s.Stats(1).AtomRetries; n != 0 {
		t.Errorf("atomics on four free lines charged %d retries", n)
	}
}

// Package stats collects the execution statistics the paper reports:
// dynamic instruction counts split into useful vs synchronization overhead
// (Fig. 1c, 13a), memory transactions by class (Fig. 1d, 13b), SIMD
// efficiency (Fig. 1e, 13c), the lock-acquire / wait-exit outcome
// distribution (Fig. 2, 12), backed-off warp occupancy (Fig. 11), and the
// raw event counts the energy model weighs (Fig. 9b, 15b).
package stats

import (
	"math"
	"strings"
)

// Sim aggregates statistics for one simulation (summed over SMs).
type Sim struct {
	// Cycles is the kernel execution time in core cycles.
	Cycles int64

	// WarpInstrs counts issued warp instructions; ThreadInstrs counts
	// per-lane executions (active lanes summed over issued instructions).
	WarpInstrs   int64
	ThreadInstrs int64
	// SyncThreadInstrs is the subset of ThreadInstrs annotated AnnSync
	// (busy-wait / acquire / release code); the remainder is useful work.
	SyncThreadInstrs int64
	// SIBInstrs counts warp executions of spin-inducing branches (taken,
	// i.e. spin iterations), using the active BOWS trigger source.
	SIBInstrs int64
	// ActiveLaneSum accumulates active lanes per issued instruction for
	// SIMD efficiency: ActiveLaneSum / (32 * WarpInstrs).
	ActiveLaneSum int64

	// Issue accounting.
	IssueCycles   int64 // scheduler-cycles with an instruction issued
	IdleCycles    int64 // scheduler-cycles with no ready warp
	StallTotal    int64 // warp-cycles where a resident warp was unready
	BackedOffSum  int64 // per-cycle sum of warps in backed-off state
	ResidentSum   int64 // per-cycle sum of resident (unfinished) warps
	SampleCycles  int64 // cycles over which the two sums were sampled
	BackoffBlocks int64 // issue attempts rejected because pending delay > 0

	Mem  Mem
	Sync SyncEvents
}

// Mem counts memory-system events.
type Mem struct {
	// Transactions is the number of coalesced 128-byte segment accesses
	// generated; SyncTransactions is the subset from AnnSync
	// instructions (Fig. 1d).
	Transactions     int64
	SyncTransactions int64
	L1Accesses       int64
	L1Hits           int64
	L2Accesses       int64
	L2Hits           int64
	DRAMAccesses     int64
	AtomicOps        int64
	FenceOps         int64
	// MSHRStalls counts cycles an SM's segment injection stalled because
	// every L1 MSHR was occupied; MSHRMerges counts loads merged onto an
	// already-outstanding miss.
	MSHRStalls int64
	MSHRMerges int64
	// AtomRetries counts L2 atomic-unit service attempts deferred because
	// the target line's atomic slot was busy — the contention the paper's
	// §II bandwidth argument rests on.
	AtomRetries int64
}

// SyncEvents counts the per-lane synchronization outcomes of Figure 2 /
// Figure 12.
type SyncEvents struct {
	LockSuccess     int64 // acquire CAS returned 0 (lock taken)
	InterWarpFail   int64 // acquire failed; holder in a different warp
	IntraWarpFail   int64 // acquire failed; holder in the same warp
	WaitExitSuccess int64 // wait condition satisfied, lane leaves loop
	WaitExitFail    int64 // wait condition unsatisfied, lane spins again
	LockRelease     int64
}

// simCounters and memCounters are the one name↔field table: each row
// names a counter as the metrics registry and run manifests spell it
// (under a per-SM "sm<i>." prefix there; memory counters additionally
// under "mem.") and locates its field. Add, the engine's registration
// (Sim.EachCounter, Mem.EachCounter) and FromCounters are all derived
// from it, so a new counter is one new row. Cycles is not a row: it
// merges by max and travels as the record's headline.
var simCounters = []struct {
	name  string
	field func(*Sim) *int64
}{
	{"exec.warp_instrs", func(s *Sim) *int64 { return &s.WarpInstrs }},
	{"exec.thread_instrs", func(s *Sim) *int64 { return &s.ThreadInstrs }},
	{"exec.sync_thread_instrs", func(s *Sim) *int64 { return &s.SyncThreadInstrs }},
	{"exec.sib_instrs", func(s *Sim) *int64 { return &s.SIBInstrs }},
	{"exec.active_lane_sum", func(s *Sim) *int64 { return &s.ActiveLaneSum }},
	{"sched.issue_cycles", func(s *Sim) *int64 { return &s.IssueCycles }},
	{"sched.idle_cycles", func(s *Sim) *int64 { return &s.IdleCycles }},
	{"sched.stall_warp_cycles", func(s *Sim) *int64 { return &s.StallTotal }},
	{"sched.backed_off_sum", func(s *Sim) *int64 { return &s.BackedOffSum }},
	{"sched.resident_sum", func(s *Sim) *int64 { return &s.ResidentSum }},
	{"sched.sample_cycles", func(s *Sim) *int64 { return &s.SampleCycles }},
	{"sched.backoff_blocks", func(s *Sim) *int64 { return &s.BackoffBlocks }},
	{"sync.lock_success", func(s *Sim) *int64 { return &s.Sync.LockSuccess }},
	{"sync.lock_fail_inter_warp", func(s *Sim) *int64 { return &s.Sync.InterWarpFail }},
	{"sync.lock_fail_intra_warp", func(s *Sim) *int64 { return &s.Sync.IntraWarpFail }},
	{"sync.wait_exit_success", func(s *Sim) *int64 { return &s.Sync.WaitExitSuccess }},
	{"sync.wait_exit_fail", func(s *Sim) *int64 { return &s.Sync.WaitExitFail }},
	{"sync.lock_release", func(s *Sim) *int64 { return &s.Sync.LockRelease }},
}

var memCounters = []struct {
	name  string
	field func(*Mem) *int64
}{
	{"transactions", func(m *Mem) *int64 { return &m.Transactions }},
	{"sync_transactions", func(m *Mem) *int64 { return &m.SyncTransactions }},
	{"l1_accesses", func(m *Mem) *int64 { return &m.L1Accesses }},
	{"l1_hits", func(m *Mem) *int64 { return &m.L1Hits }},
	{"l2_accesses", func(m *Mem) *int64 { return &m.L2Accesses }},
	{"l2_hits", func(m *Mem) *int64 { return &m.L2Hits }},
	{"dram_accesses", func(m *Mem) *int64 { return &m.DRAMAccesses }},
	{"atomic_ops", func(m *Mem) *int64 { return &m.AtomicOps }},
	{"fence_ops", func(m *Mem) *int64 { return &m.FenceOps }},
	{"mshr_stalls", func(m *Mem) *int64 { return &m.MSHRStalls }},
	{"mshr_merges", func(m *Mem) *int64 { return &m.MSHRMerges }},
	{"atom_retries", func(m *Mem) *int64 { return &m.AtomRetries }},
}

// EachCounter visits every counter of s outside s.Mem with its registry
// name ("exec.warp_instrs", ...). The memory counters are visited
// through Mem.EachCounter: the engine registers them from the memory
// system's live per-port Mem, not from the Sim copy made at result time.
func (s *Sim) EachCounter(visit func(name string, v *int64)) {
	for _, c := range simCounters {
		visit(c.name, c.field(s))
	}
}

// EachCounter visits every counter of m with its registry name relative
// to the "mem." scope ("transactions", ...).
func (m *Mem) EachCounter(visit func(name string, v *int64)) {
	for _, c := range memCounters {
		visit(c.name, c.field(m))
	}
}

// Add merges o into s: Cycles takes the max, every counter sums.
func (s *Sim) Add(o *Sim) {
	s.Cycles = max(s.Cycles, o.Cycles)
	for _, c := range simCounters {
		*c.field(s) += *c.field(o)
	}
	for _, c := range memCounters {
		*c.field(&s.Mem) += *c.field(&o.Mem)
	}
}

// SIMDEfficiency returns average active lanes per issued instruction as a
// fraction of warp width.
func (s *Sim) SIMDEfficiency() float64 {
	if s.WarpInstrs == 0 {
		return 0
	}
	return float64(s.ActiveLaneSum) / float64(32*s.WarpInstrs)
}

// SyncInstrFraction returns the Figure 1c overhead fraction.
func (s *Sim) SyncInstrFraction() float64 {
	if s.ThreadInstrs == 0 {
		return 0
	}
	return float64(s.SyncThreadInstrs) / float64(s.ThreadInstrs)
}

// SyncMemFraction returns the Figure 1d traffic fraction.
func (s *Sim) SyncMemFraction() float64 {
	if s.Mem.Transactions == 0 {
		return 0
	}
	return float64(s.Mem.SyncTransactions) / float64(s.Mem.Transactions)
}

// BackedOffFraction returns the average fraction of resident warps in the
// backed-off state (Fig. 11).
func (s *Sim) BackedOffFraction() float64 {
	if s.ResidentSum == 0 {
		return 0
	}
	return float64(s.BackedOffSum) / float64(s.ResidentSum)
}

// LockAttempts returns total lock-acquire lane attempts.
func (e *SyncEvents) LockAttempts() int64 {
	return e.LockSuccess + e.InterWarpFail + e.IntraWarpFail
}

// WaitAttempts returns total wait-exit lane attempts.
func (e *SyncEvents) WaitAttempts() int64 { return e.WaitExitSuccess + e.WaitExitFail }

// Mean returns the arithmetic mean of vs, or 0 if vs is empty. Table I
// averages per-kernel detection rates with it.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Gmean returns the geometric mean of vs, or 0 if vs is empty or any
// value is non-positive. The harness and report use it wherever the paper
// reports a mean over normalized ratios.
func Gmean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	prod := 1.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		prod *= v
	}
	return math.Pow(prod, 1/float64(len(vs)))
}

// Hmean returns the harmonic mean of vs, or 0 if vs is empty or any
// value is non-positive. Speedup summaries in internal/report use it
// (the conservative mean for rates: dominated by the slowest benchmark).
func Hmean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var inv float64
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		inv += 1 / v
	}
	return float64(len(vs)) / inv
}

// FromCounters reconstructs a Sim from a run manifest's counter map
// plus the record's headline cycle count. It accepts both machine-total
// names (internal/exp's aggregated manifests, e.g. "exec.warp_instrs")
// and per-SM names (warpsimd's manifests, e.g. "sm0.exec.warp_instrs"),
// folding the latter by summing across SMs. It is the inverse of the
// engine's metric registration as seen through manifest aggregation, and
// lets every consumer of a record (each experiment and internal/report,
// through exp.RunOfRecord) reuse every derived-metric method — SIMDEfficiency, SyncInstrFraction,
// energy.Compute — without a live simulation. Names absent from the map
// leave their field zero; the golden-manifest round-trip test in
// internal/exp pins the coupling.
func FromCounters(cycles int64, c map[string]int64) *Sim {
	s := &Sim{Cycles: cycles}
	for name, v := range c {
		if field, ok := counterByName[FoldCounterName(name)]; ok {
			*field(s) += v
		}
	}
	return s
}

// counterByName indexes the counter table by machine-total manifest
// name, for FromCounters.
var counterByName = func() map[string]func(*Sim) *int64 {
	idx := make(map[string]func(*Sim) *int64, len(simCounters)+len(memCounters))
	for _, c := range simCounters {
		idx[c.name] = c.field
	}
	for _, c := range memCounters {
		idx["mem."+c.name] = func(s *Sim) *int64 { return c.field(&s.Mem) }
	}
	return idx
}()

// FoldCounterName maps a per-SM counter name ("sm<i>.<rest>") onto its
// machine-total name ("<rest>"); names without the prefix — aggregated
// counters, engine-scoped counters — pass through unchanged.
func FoldCounterName(name string) string {
	if !strings.HasPrefix(name, "sm") {
		return name
	}
	rest := name[2:]
	i := 0
	for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		i++
	}
	if i == 0 || i >= len(rest) || rest[i] != '.' {
		return name
	}
	return rest[i+1:]
}

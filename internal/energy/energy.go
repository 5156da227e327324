// Package energy is an event-based dynamic energy model standing in for
// GPUWattch: each architectural event (instruction issue, lane ALU
// operation, register file access, cache/DRAM transaction, atomic
// operation) is charged a per-event energy, and idle resident cycles are
// charged a small constant. The paper reports *normalized* dynamic energy
// (Figures 9b and 15b), so only the relative weights matter; coefficients
// are order-of-magnitude values from the GPUWattch/McPAT literature.
package energy

import (
	"fmt"

	"warpsched/internal/metrics"
	"warpsched/internal/stats"
)

// Coefficients are per-event energies in picojoules.
type Coefficients struct {
	IssuePJ     float64 // per issued warp instruction (fetch/decode/issue)
	LaneOpPJ    float64 // per active-lane executed operation
	RFAccessPJ  float64 // per active-lane register file access (avg reads+write)
	L1PJ        float64 // per L1 transaction
	L2PJ        float64 // per L2 transaction
	DRAMPJ      float64 // per DRAM transaction
	AtomicPJ    float64 // additional per atomic transaction (RMW at L2)
	IdleWarpPJ  float64 // per resident-warp stall cycle (clock/pipeline overhead)
	SchedulerPJ float64 // per scheduler arbitration cycle
}

// Fermi returns coefficients tuned for the GTX480-class model.
func Fermi() Coefficients {
	return Coefficients{
		IssuePJ:     40,
		LaneOpPJ:    10,
		RFAccessPJ:  6,
		L1PJ:        80,
		L2PJ:        250,
		DRAMPJ:      2000,
		AtomicPJ:    150,
		IdleWarpPJ:  1.5,
		SchedulerPJ: 8,
	}
}

// Pascal returns coefficients for the GTX1080Ti-class model (16 nm:
// lower per-event energy, same ratios to first order).
func Pascal() Coefficients {
	c := Fermi()
	c.IssuePJ *= 0.55
	c.LaneOpPJ *= 0.55
	c.RFAccessPJ *= 0.55
	c.L1PJ *= 0.6
	c.L2PJ *= 0.6
	c.DRAMPJ *= 0.7
	c.AtomicPJ *= 0.6
	c.IdleWarpPJ *= 0.5
	c.SchedulerPJ *= 0.55
	return c
}

// ByConfigName returns the coefficient set for a GPU config name.
func ByConfigName(name string) Coefficients {
	if len(name) >= 7 && name[:7] == "GTX1080" {
		return Pascal()
	}
	return Fermi()
}

// Breakdown is the modeled dynamic energy split by component, in
// picojoules.
type Breakdown struct {
	Core   float64 // issue + lane ops + RF
	L1     float64
	L2     float64
	DRAM   float64
	Atomic float64
	Idle   float64
	Sched  float64
}

// Total returns the summed dynamic energy.
func (b Breakdown) Total() float64 {
	return b.Core + b.L1 + b.L2 + b.DRAM + b.Atomic + b.Idle + b.Sched
}

// String renders the breakdown in nanojoules.
func (b Breakdown) String() string {
	return fmt.Sprintf("total=%.1fnJ core=%.1f l1=%.1f l2=%.1f dram=%.1f atomic=%.1f idle=%.1f sched=%.1f",
		b.Total()/1e3, b.Core/1e3, b.L1/1e3, b.L2/1e3, b.DRAM/1e3, b.Atomic/1e3, b.Idle/1e3, b.Sched/1e3)
}

// Register exposes the modeled energy breakdown as registry gauges under
// prefix (e.g. "energy."). Each gauge recomputes the breakdown from the
// live stats at snapshot time, so registration adds nothing to the
// simulation's per-cycle cost.
func Register(r *metrics.Registry, prefix string, c Coefficients, s *stats.Sim) {
	part := func(name string, f func(*Breakdown) float64) {
		r.Gauge(prefix+name, func() float64 {
			b := Compute(c, s)
			return f(&b)
		})
	}
	part("total_pj", func(b *Breakdown) float64 { return b.Total() })
	part("core_pj", func(b *Breakdown) float64 { return b.Core })
	part("l1_pj", func(b *Breakdown) float64 { return b.L1 })
	part("l2_pj", func(b *Breakdown) float64 { return b.L2 })
	part("dram_pj", func(b *Breakdown) float64 { return b.DRAM })
	part("atomic_pj", func(b *Breakdown) float64 { return b.Atomic })
	part("idle_pj", func(b *Breakdown) float64 { return b.Idle })
	part("sched_pj", func(b *Breakdown) float64 { return b.Sched })
}

// Compute charges the coefficient set against the run's event counts.
func Compute(c Coefficients, s *stats.Sim) Breakdown {
	var b Breakdown
	// ~3 RF accesses per lane op (2 reads + 1 write on average).
	b.Core = c.IssuePJ*float64(s.WarpInstrs) +
		c.LaneOpPJ*float64(s.ThreadInstrs) +
		3*c.RFAccessPJ*float64(s.ThreadInstrs)
	b.L1 = c.L1PJ * float64(s.Mem.L1Accesses)
	b.L2 = c.L2PJ * float64(s.Mem.L2Accesses)
	b.DRAM = c.DRAMPJ * float64(s.Mem.DRAMAccesses)
	b.Atomic = c.AtomicPJ * float64(s.Mem.AtomicOps)
	b.Idle = c.IdleWarpPJ * float64(s.StallTotal)
	b.Sched = c.SchedulerPJ * float64(s.IssueCycles+s.IdleCycles)
	return b
}

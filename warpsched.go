// Package warpsched is a cycle-level SIMT GPU simulator built to
// reproduce "Warp Scheduling for Fine-Grained Synchronization"
// (ElTantawy & Aamodt, HPCA 2018). It implements the paper's two
// contributions — DDOS, a dynamic hardware detector for busy-wait
// (spin-lock and wait-and-signal) loops, and BOWS, a warp-scheduler
// extension that deprioritizes and rate-limits spinning warps — on top of
// a from-scratch GPU model: SIMT cores with a reconvergence stack, LRR /
// GTO / CAWA warp schedulers, non-coherent L1 caches, a banked L2 with a
// serializing atomic unit, and a DRAM bandwidth model.
//
// Quick start:
//
//	k, _ := warpsched.Kernel("HT")
//	opt := warpsched.DefaultOptions()
//	opt.Sched = warpsched.GTO
//	opt.BOWS = warpsched.DefaultBOWS() // enable BOWS driven by DDOS
//	res, err := warpsched.Run(opt, k)
//
// The internal packages hold the implementation; this package is the
// stable surface: configurations (Table II), the kernel suite (paper §V),
// and the Run entry point. See cmd/experiments for the harness that
// regenerates every table and figure of the paper, and EXPERIMENTS.md for
// paper-vs-measured results.
package warpsched

import (
	"fmt"

	"warpsched/internal/config"
	"warpsched/internal/energy"
	"warpsched/internal/isa"
	"warpsched/internal/kernels"
	"warpsched/internal/mem"
	"warpsched/internal/sim"
	"warpsched/internal/trace"
)

// Re-exported configuration types (see internal/config for field docs).
type (
	// GPU is a hardware configuration (Table II).
	GPU = config.GPU
	// BOWSConfig holds Back-Off Warp Spinning parameters.
	BOWSConfig = config.BOWS
	// DDOSConfig holds Dynamic Detection Of Spinning parameters.
	DDOSConfig = config.DDOS
	// SchedulerKind names a baseline warp scheduling policy.
	SchedulerKind = config.SchedulerKind
	// DetectorKind names a spin-detector implementation (Options.Detector).
	DetectorKind = config.DetectorKind
	// TAGEConfig holds TAGE-SIB spin-predictor parameters (Options.TAGE).
	TAGEConfig = config.TAGE
	// WaSPConfig holds WaSP priority-group scheduling parameters
	// (Options.WaSP).
	WaSPConfig = config.WaSP
	// Options selects hardware configuration and policies for a run.
	Options = sim.Options
	// Result is a completed simulation's statistics bundle.
	Result = sim.Result
	// Benchmark is a kernel plus its input generator and verifier.
	Benchmark = kernels.Kernel
	// EnergyBreakdown is the modeled dynamic energy split.
	EnergyBreakdown = energy.Breakdown
	// Program is an assembled kernel body (see ParseProgram).
	Program = isa.Program
	// Launch describes a kernel launch: program, grid geometry,
	// parameters, memory size and initializer.
	Launch = sim.Launch
	// TraceRing records the most recent pipeline events (Options.Tracer).
	TraceRing = trace.Ring
	// FaultConfig configures deterministic, seeded memory-system fault
	// injection (Options.Faults); see DefaultFaults.
	FaultConfig = mem.FaultConfig
	// HangError reports a hung simulation: a watchdog expiry, or with
	// Options.Check an early abort, carrying a classified HangReport.
	// Returned (wrapped) by Run when a kernel deadlocks, livelocks or
	// starves.
	HangError = sim.HangError
	// HangReport is the structured diagnosis attached to a HangError:
	// classification, progress counters over the sampling window, and the
	// per-warp stuck states.
	HangReport = sim.HangReport
	// InvariantError reports runtime invariant violations detected with
	// Options.Check enabled (which also arms early hang aborts).
	InvariantError = sim.InvariantError
)

// DefaultFaults returns the standard fault-injection mix (rare latency
// spikes, response reordering, atomic retry storms) driven by seed.
// Assign to Options.Faults; scale intensity with FaultConfig.Scale.
func DefaultFaults(seed uint64) FaultConfig { return mem.DefaultFaults(seed) }

// NewTraceRing creates a pipeline-event recorder holding the last n
// events; attach it via Options.Tracer.
func NewTraceRing(n int) *TraceRing { return trace.NewRing(n) }

// Scheduler kinds: the paper's three baselines plus the WaSP
// priority-group policy (see docs/SCHEDULERS.md).
const (
	LRR  = config.LRR
	GTO  = config.GTO
	CAWA = config.CAWA
	WASP = config.WASP
)

// Spin-detector kinds (Options.Detector; empty selects DDOS).
const (
	// DetectDDOS selects the paper's value-history detector.
	DetectDDOS = config.DetectDDOS
	// DetectTAGE selects the TAGE-SIB tagged-geometric-history predictor.
	DetectTAGE = config.DetectTAGE
)

// BOWS trigger modes.
const (
	// BOWSOff disables BOWS.
	BOWSOff = config.BOWSOff
	// BOWSDDOS drives BOWS from the DDOS detector (the full system).
	BOWSDDOS = config.BOWSDDOS
	// BOWSStatic drives BOWS from compiler/programmer SIB annotations.
	BOWSStatic = config.BOWSStatic
)

// GTX480 returns the paper's Fermi configuration.
func GTX480() GPU { return config.GTX480() }

// GTX1080Ti returns the paper's Pascal configuration.
func GTX1080Ti() GPU { return config.GTX1080Ti() }

// DefaultBOWS returns the paper's Table II BOWS parameters (adaptive
// delay limit, DDOS-driven).
func DefaultBOWS() BOWSConfig { return config.DefaultBOWS() }

// FixedBOWS returns BOWS with a fixed back-off delay limit (Figure 10).
func FixedBOWS(limit int64) BOWSConfig { return config.FixedBOWS(limit) }

// DefaultDDOS returns the paper's DDOS evaluation parameters
// (XOR hashing, m=k=8, l=8, t=4).
func DefaultDDOS() DDOSConfig { return config.DefaultDDOS() }

// DefaultTAGE returns the default TAGE-SIB predictor geometry (4 tagged
// tables, history lengths 4..32, 6-bit indices, 8-bit tags).
func DefaultTAGE() TAGEConfig { return config.DefaultTAGE() }

// DefaultWaSP returns the default WaSP knobs (priority group of 4,
// rotation every 20000 cycles).
func DefaultWaSP() WaSPConfig { return config.DefaultWaSP() }

// DefaultOptions returns GTX480 + GTO with BOWS off.
func DefaultOptions() Options { return sim.DefaultOptions() }

// Kernel returns a benchmark from the suite by name. Valid names are
// listed by KernelNames: the synchronization suite (TB, ST, DS, ATM, HT,
// TSP, NW1, NW2) and the fourteen sync-free Rodinia stand-ins (KMEANS,
// VECADD, REDUCE, MS, HL, STENCIL, BFS, HOTSPOT, PATHFINDER, BACKPROP,
// SRAD, LUD, NN, GAUSSIAN).
func Kernel(name string) (*Benchmark, error) { return kernels.ByName(name) }

// KernelNames lists every benchmark in the suite.
func KernelNames() []string { return kernels.Names() }

// SyncSuite returns the paper's eight synchronization kernels.
func SyncSuite() []*Benchmark { return kernels.SyncSuite() }

// SyncFreeSuite returns the Rodinia-standin kernels.
func SyncFreeSuite() []*Benchmark { return kernels.SyncFreeSuite() }

// Run simulates the benchmark to completion, verifies its functional
// output, and returns the result.
func Run(opt Options, k *Benchmark) (*Result, error) {
	eng, err := sim.New(opt, k.Launch)
	if err != nil {
		return nil, err
	}
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	if k.Verify != nil {
		if err := k.Verify(res.Memory); err != nil {
			return nil, fmt.Errorf("warpsched: %s produced incorrect output under %s: %w",
				k.Name, opt.Sched, err)
		}
	}
	return res, nil
}

// ParseProgram assembles a PTX-flavoured text kernel. The syntax is
// documented on internal/isa.Parse; see examples/customkernel for a
// complete program. Mark busy-wait code "!sync": the program's SIB ground
// truth, which BOWSStatic mode and the detection-quality metrics read,
// is every guarded backward sync branch whose loop body holds an atomic
// or an ld.volatile. A written "!sib" is accepted and does not change it.
func ParseProgram(name, src string) (*Program, error) {
	return isa.Parse(name, src)
}

// NewBenchmark wraps a launch and an optional verifier as a runnable
// Benchmark, for kernels defined outside the built-in suite.
func NewBenchmark(name, desc string, launch Launch, verify func(mem []uint32) error) *Benchmark {
	return &Benchmark{
		Name:   name,
		Class:  kernels.ClassSync,
		Desc:   desc,
		Launch: launch,
		Verify: verify,
	}
}

// Energy computes the modeled dynamic energy of a result under the
// coefficient set matching the GPU configuration used.
func Energy(opt Options, res *Result) EnergyBreakdown {
	return energy.Compute(energy.ByConfigName(opt.GPU.Name), &res.Stats)
}

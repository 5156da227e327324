// Command warpsim runs one benchmark kernel on the simulator and prints a
// statistics report.
//
// Usage:
//
//	warpsim -kernel HT -sched GTO -bows ddos -gpu fermi -sms 4
//
// warpsim -list prints the available kernels.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"warpsched"
	"warpsched/internal/config"
	"warpsched/internal/exp"
	"warpsched/internal/metrics"
)

func main() {
	var (
		kernel    = flag.String("kernel", "HT", "kernel name (see -list)")
		sched     = flag.String("sched", "GTO", "warp scheduler: LRR, GTO, CAWA or WASP (see docs/SCHEDULERS.md)")
		detector  = flag.String("detector", "DDOS", "spin detector: DDOS or TAGE")
		bows      = flag.String("bows", "off", "BOWS mode: off, ddos or static")
		delay     = flag.Int64("delay", -1, "fixed back-off delay limit in cycles (-1 = adaptive)")
		gpu       = flag.String("gpu", "fermi", "GPU configuration: fermi (GTX480) or pascal (GTX1080Ti)")
		sms       = flag.Int("sms", 0, "scale the machine down to this many SMs (0 = full)")
		hash      = flag.String("hash", "XOR", "DDOS hashing function: XOR or MODULO")
		listing   = flag.Bool("asm", false, "print the kernel's assembly listing before running")
		profile   = flag.Bool("profile", false, "print a per-PC issue-count heatmap after running")
		traceN    = flag.Int("trace", 0, "print the last N pipeline events (issues, SIBs, back-off exits)")
		list      = flag.Bool("list", false, "list available kernels and exit")
		statsJSON = flag.String("stats-json", "", "write a machine-readable run manifest (full per-SM counter snapshot) to this file")
		check     = flag.Bool("check", false, "enable runtime invariant checking and early hang aborts (diagnoses deadlock/livelock/starvation)")
		faultSeed = flag.Uint64("fault-seed", 0, "inject deterministic memory faults (latency spikes, reordering, atomic retry storms) with this seed; 0 = off")
		faultRate = flag.Float64("fault-rate", 1.0, "scale fault-injection probabilities by this factor (with -fault-seed)")
		noFF      = flag.Bool("no-ff", false, "disable event-driven fast-forward and tick every cycle (results are cycle-identical either way)")
	)
	flag.Parse()

	if *list {
		names := warpsched.KernelNames()
		sort.Strings(names)
		for _, n := range names {
			k, _ := warpsched.Kernel(n)
			fmt.Printf("%-8s %s\n", n, k.Desc)
		}
		return
	}

	k, err := warpsched.Kernel(*kernel)
	if err != nil {
		fatal(err)
	}

	// One run description shared with cmd/experiments and warpsimd: the
	// names resolve through the config vocabulary, and the spec's variant
	// hash, manifest record and engine options come from internal/exp.
	// warpsim owns its watchdog budget (the machine's own MaxCycles), not
	// the experiment clamp.
	spec := exp.Spec{Kernel: k}
	spec.GPU, err = config.ParseGPU(*gpu, *sms)
	usageError(err)
	spec.MaxCycles = spec.GPU.MaxCycles
	spec.Sched, err = config.ParseScheduler(*sched)
	usageError(err)
	if spec.Sched == config.WASP {
		spec.WaSP = config.DefaultWaSP()
	}
	spec.Detector, err = config.ParseDetector(*detector)
	usageError(err)
	if spec.Detector == config.DetectTAGE {
		spec.TAGE = config.DefaultTAGE()
	}
	fixed := delay
	if *delay < 0 {
		fixed = nil // adaptive
	}
	spec.BOWS, err = config.ParseBOWS(*bows, fixed)
	usageError(err)
	spec.DDOS, err = config.ParseDDOS(*hash)
	usageError(err)

	opt := exp.Cfg{Check: *check, NoFastForward: *noFF}.Options(spec)
	opt.Profile = *profile
	if *faultSeed != 0 {
		f := warpsched.DefaultFaults(*faultSeed).Scale(*faultRate)
		opt.Faults = &f
	}
	var ring *warpsched.TraceRing
	if *traceN > 0 {
		ring = warpsched.NewTraceRing(*traceN)
		opt.Tracer = ring
	}

	if *listing {
		fmt.Println(k.Launch.Prog.Listing())
	}

	start := time.Now()
	res, err := warpsched.Run(opt, k)
	if err != nil {
		fatal(err)
	}
	wallMS := float64(time.Since(start).Microseconds()) / 1e3

	if *statsJSON != "" {
		desc := map[string]any{
			"kernel": k.Name, "sched": string(opt.Sched), "bows": string(opt.BOWS.Mode),
			"gpu": opt.GPU.Name, "delay": *delay, "hash": string(opt.DDOS.Hash),
		}
		// A fault-injected run is a different run: its config hash must not
		// collide with the clean run's, or joining the two manifests reads
		// as a determinism conflict.
		if *faultSeed != 0 {
			desc["fault_seed"], desc["fault_rate"] = *faultSeed, *faultRate
		}
		m := metrics.NewManifest("warpsim", desc)
		// warpsim is a single run, so the manifest keeps the full per-SM
		// resolution instead of machine totals.
		rec := exp.SMRecord(spec, exp.Outcome{Res: res})
		rec.WallMS = wallMS
		if err := m.Add(rec); err != nil {
			fatal(err)
		}
		m.WallMS = wallMS
		if err := m.WriteFile(*statsJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "warpsim: wrote manifest to %s\n", *statsJSON)
	}

	s := &res.Stats
	fmt.Printf("kernel           %s — %s\n", k.Name, k.Desc)
	fmt.Printf("machine          %s, %s scheduler, BOWS=%s\n", opt.GPU.Name, opt.Sched, opt.BOWS.Mode)
	fmt.Printf("cycles           %d (%.3f ms at %d MHz)\n", s.Cycles,
		float64(s.Cycles)/(float64(opt.GPU.CoreClockMHz)*1000), opt.GPU.CoreClockMHz)
	if res.FFJumps > 0 || res.FFSkippedSMTicks > 0 {
		fmt.Printf("clock            %d event jumps covering %d cycles (%.1f%% of simulated time), %d dormant SM-ticks skipped\n",
			res.FFJumps, res.FFSkippedCycles, 100*float64(res.FFSkippedCycles)/float64(s.Cycles),
			res.FFSkippedSMTicks)
	}
	fmt.Printf("warp instrs      %d  (thread instrs %d, %.1f%% sync overhead)\n",
		s.WarpInstrs, s.ThreadInstrs, 100*s.SyncInstrFraction())
	fmt.Printf("SIMD efficiency  %.1f%%\n", 100*s.SIMDEfficiency())
	fmt.Printf("memory           %d transactions (%.1f%% sync), L1 %d/%d hits, L2 %d/%d hits, DRAM %d, atomics %d\n",
		s.Mem.Transactions, 100*s.SyncMemFraction(),
		s.Mem.L1Hits, s.Mem.L1Accesses, s.Mem.L2Hits, s.Mem.L2Accesses,
		s.Mem.DRAMAccesses, s.Mem.AtomicOps)
	fmt.Printf("locks            %d acquired, %d inter-warp fails, %d intra-warp fails; wait exits %d ok / %d fail\n",
		s.Sync.LockSuccess, s.Sync.InterWarpFail, s.Sync.IntraWarpFail,
		s.Sync.WaitExitSuccess, s.Sync.WaitExitFail)
	if opt.BOWS.Mode != warpsched.BOWSOff {
		fmt.Printf("BOWS             backed-off warp share %.1f%%, final delay limits %v\n",
			100*s.BackedOffFraction(), res.FinalDelayLimits)
	}
	det := res.Detection
	fmt.Printf("%-16s TSDR %.2f (%d/%d), FSDR %.2f (%d/%d), confirmed SIB PCs %v (true: %v)\n",
		string(opt.Detector),
		det.TSDR(), det.TrueDetected, det.TrueSeen,
		det.FSDR(), det.FalseDetected, det.FalseSeen,
		res.ConfirmedSIBs, k.Launch.Prog.TrueSIBs)
	fmt.Printf("energy           %s\n", warpsched.Energy(opt, res))

	if ring != nil {
		fmt.Printf("\nlast %d pipeline events (%d total):\n%s", *traceN, ring.Total(), ring.Dump())
	}

	if *profile {
		fmt.Println("\nper-PC issue counts (hot instructions are where the machine spends issue slots):")
		var total int64
		for _, n := range res.PCProfile {
			total += n
		}
		prog := k.Launch.Prog
		for pc := int32(0); pc < prog.Len(); pc++ {
			n := res.PCProfile[pc]
			barLen := 0
			if total > 0 {
				barLen = int(50 * n / (total + 1))
			}
			fmt.Printf("%10d %5.1f%% %-20s %04d: %s\n", n, 100*float64(n)/float64(total),
				strings.Repeat("#", barLen), pc, prog.At(pc).Op)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "warpsim:", err)
	os.Exit(1)
}

// usageError reports a bad flag value (nil is no error) with the usage
// text, exit code 2 (a misuse, not a simulation failure).
func usageError(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "warpsim:", err)
	flag.Usage()
	os.Exit(2)
}

// Package sim is the cycle-level GPU engine: it instantiates SMs with
// warp schedulers, a scoreboard, an ALU writeback pipeline and a port
// into the shared memory system, dispatches CTAs, and advances everything
// one cycle at a time. It corresponds to the GPGPU-Sim core model the
// paper's evaluation runs on, with BOWS and DDOS (internal/core) attached
// at the points Figure 8 shows: DDOS observes setp executions in the
// execution stage and backward branches at the branch unit; BOWS wraps
// the per-scheduler arbitration.
package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"warpsched/internal/config"
	"warpsched/internal/core"
	"warpsched/internal/energy"
	"warpsched/internal/isa"
	"warpsched/internal/mem"
	"warpsched/internal/metrics"
	"warpsched/internal/sched"
	"warpsched/internal/simt"
	"warpsched/internal/stats"
	"warpsched/internal/trace"
)

// Launch describes one kernel launch.
type Launch struct {
	Prog *isa.Program
	// GridCTAs and CTAThreads define the launch geometry; CTAThreads need
	// not be a multiple of 32 (the last warp is partial).
	GridCTAs   int
	CTAThreads int
	Params     []uint32
	// MemWords sizes global memory; Setup initializes it before the run.
	MemWords int
	Setup    func(words []uint32)
}

// Options selects the hardware configuration and scheduling policy.
type Options struct {
	GPU   config.GPU
	Sched config.SchedulerKind
	BOWS  config.BOWS
	DDOS  config.DDOS
	// Detector selects the spin-detection mechanism (empty means
	// config.DetectDDOS, the paper's hash-based detector); BOWS in ddos
	// mode consumes whichever detector is instantiated.
	Detector config.DetectorKind
	// TAGE parameterizes the TAGE-SIB predictor when Detector is
	// config.DetectTAGE (a zero value means config.DefaultTAGE()).
	TAGE config.TAGE
	// WaSP parameterizes the WASP priority-group policy when Sched is
	// config.WASP (a zero value means config.DefaultWaSP()).
	WaSP config.WaSP
	// Profile enables per-PC issue counting (Result.PCProfile), the
	// instruction heatmap behind `warpsim -profile`.
	Profile bool
	// Tracer, when non-nil, receives pipeline events (see internal/trace).
	Tracer Tracer
	// Observer, when non-nil, receives every memory access at issue time
	// and every CTA barrier release. Observation-only: an observed run
	// simulates identically (same cycles, stats and memory image).
	Observer Observer

	// Check enables the runtime invariant checker (internal/sim/invariants.go)
	// and early hang aborts. Every CheckEvery cycles (DefaultCheckEvery when
	// zero) the engine cross-checks scoreboards, request-pool balance, CTA
	// accounting and the memory system's internal audit, failing with an
	// *InvariantError; a hang classified over two consecutive
	// DefaultHangWindow windows (internal/sim/hang.go) aborts the run with a
	// *HangError instead of burning the rest of the MaxCycles budget. Both
	// only read state, so a checked run simulates identically. Without Check,
	// progress monitoring still runs passively so watchdog errors carry a
	// HangReport either way.
	Check      bool
	CheckEvery int64
	// Faults, when non-nil, wires a deterministic fault injector into the
	// memory system (see mem.FaultConfig): seeded latency spikes, response
	// reordering and atomic retry storms. Results remain deterministic for
	// a given seed but differ from uninjected runs.
	Faults *mem.FaultConfig

	// NoFastForward disables the event-driven clock. By default, when
	// every scheduler unit idles and the memory system has no per-cycle
	// work, the engine jumps the cycle counter directly to the next cycle
	// at which machine state can change (earliest memory completion event,
	// BOWS back-off expiry, adaptive-controller window, DDOS time-share
	// epoch, hang-monitor sample or invariant-check boundary),
	// bulk-crediting every per-cycle counter. Fast-forwarded runs are
	// cycle-exact: identical cycle counts, statistics, memory images and
	// hang reports (see TestFastForwardCycleExact and the golden gate).
	NoFastForward bool
	// Shards is ignored: SM ticks are serial (DESIGN.md §8b). It stays declared
	// only because bench/probes_sim.go assigns it; ROADMAP (2b) drops both.
	Shards int
	// Progress, when non-nil, receives the current cycle count while the
	// run is in flight so another goroutine (e.g. a job server answering a
	// status poll) can observe how far the simulation has advanced. The
	// engine stores into it only at hang-monitor sample boundaries
	// (DefaultHangWindow cycles apart), at event-driven clock jumps and at
	// run end — never per cycle — so the hook is free on the hot path and
	// has zero effect on simulation results.
	Progress *atomic.Int64
}

// Version identifies the simulation semantics of this build. It is part
// of every content-addressed result cache key (internal/server): bump it
// on any change that can alter cycle counts, statistics or memory images
// for some configuration, so stale cached results can never be served
// across engine changes. Observation-only changes (metrics, tracing,
// diagnosis) do not require a bump — the golden-stats gate is the
// arbiter of whether behaviour moved.
const Version = 1

// Tracer receives pipeline events during simulation. trace.Ring is the
// standard implementation.
type Tracer interface {
	Record(trace.Event)
}

// Observer receives memory-system events for dynamic analyses (e.g. the
// race-detection soundness harness in internal/analysis/race). Access is
// called once per issued memory instruction, before the request enters
// the memory system; accs is valid only for the duration of the call.
// BarrierRelease is called after every event that releases a CTA barrier
// — all live warps arrived, or the last straggler exited while others
// waited — and marks a happens-before boundary between the CTA's
// barrier intervals.
type Observer interface {
	Access(w *simt.Warp, pc int32, in *isa.Instr, accs []simt.MemAccess)
	BarrierRelease(cta *simt.CTA)
}

// DefaultOptions returns GTX480 + GTO with BOWS disabled.
func DefaultOptions() Options {
	return Options{
		GPU:   config.GTX480(),
		Sched: config.GTO,
		BOWS:  config.BOWS{Mode: config.BOWSOff},
		DDOS:  config.DefaultDDOS(),
	}
}

// Result is the outcome of a simulation.
type Result struct {
	// Stats aggregates all SMs; Metrics holds the per-SM counters.
	Stats stats.Sim
	// Detection aggregates spin-detection quality (from whichever
	// detector Options.Detector selected) over SMs.
	Detection core.DetectionMetrics
	// ConfirmedSIBs is the union of confirmed SIB PCs across SMs, in
	// ascending order.
	ConfirmedSIBs []int32
	// FinalDelayLimits holds each SM's final (adaptive) delay limit.
	FinalDelayLimits []int64
	// PCProfile[pc] counts warp instructions issued at pc (Options.Profile).
	PCProfile []int64
	// Memory exposes the final memory image for verification.
	Memory []uint32
	// FFJumps and FFSkippedCycles report event-driven clock activity: how
	// many times the engine jumped over a fully calm machine and how many
	// cycles those jumps covered. FFSkippedSMTicks counts individual SM
	// ticks elided by per-SM dormancy (an SM can skip ticks while other
	// SMs or the memory system stay busy, so this is usually much larger).
	// All are zero under Options.NoFastForward; none affects any other
	// statistic.
	FFJumps          int64
	FFSkippedCycles  int64
	FFSkippedSMTicks int64
	// Metrics is the end-of-run snapshot of the engine's metrics registry
	// (hierarchical per-SM counters, see internal/metrics).
	Metrics *metrics.Snapshot
}

type wbItem struct {
	slot   int
	isPred bool
	idx    uint8
}

type ctaRec struct {
	cta   *simt.CTA
	slots []int
}

type smUnit struct {
	policy  sched.Policy
	wrapped *core.Wrapped // non-nil when BOWS is on
	mask    uint64        // the unit's slots as a warp-slot set
	// ffBlocked caches, during a fast-forward decision, how many ready
	// backed-off warps each skipped cycle's failing PickMask would have
	// walked past (see core.Wrapped.BackoffStall); fastForward credits it.
	ffBlocked int64
}

type smState struct {
	id  int
	eng *Engine

	warps []*simt.Warp
	// ctaOf[slot] is the resident CTA the slot's warp belongs to (nil for a
	// free slot).
	ctaOf   []*ctaRec
	metrics []sched.WarpMetrics
	// regPend/predPend are per-slot scoreboards: bit r of regPend[slot]
	// marks register r pending writeback. One uint64 covers the full
	// register file (isa.NumRegs ≤ 64), so a readiness check is two ANDs
	// against the instruction's precomputed operand masks.
	regPend  []uint64
	predPend []uint64

	wbRing [][]wbItem
	// wbHead tracks cycle % len(wbRing), advanced once per tick, so the
	// hot path never computes an int64 modulo.
	wbHead int
	// wbPending counts items across all wbRing entries; the event-driven
	// clock only skips cycles while it is zero (a pending ALU writeback
	// wakes a warp within ALULat cycles).
	wbPending int
	units     []*smUnit

	det  core.Detector
	bows *core.BOWS

	// ctas lists the resident CTAs; checkCTADone drops a finished one, so
	// its warps are garbage once nothing else holds them.
	ctas      []*ctaRec
	freeSlots []int

	// Warp-slot sets, bit s for slot s (WarpsPerSM ≤ 64, see the
	// compile-time lines below). They are maintained, not recomputed:
	// refresh(slot) rederives a slot's bits and runs at exactly the events
	// that can change them (DESIGN.md §8b lists them), so a unit's ready set
	// is two ANDs (readyMask) and per-cycle accounting a population count.
	//
	// live: the slot holds a warp that has not finished. sbReady: the warp
	// is live, not at a barrier, the scoreboard is clear for the instruction
	// at its PC and the per-warp port condition of that instruction's
	// readyKind holds. nextMem: that instruction is a memory operation, so
	// issue also needs LSQ space — one condition for the whole SM, tested per
	// unit at pick time because unit 0's issue can flip it for unit 1 within
	// a tick.
	live    uint64
	sbReady uint64
	nextMem uint64
	// issuedMask holds the slots that issued during the current tick; the
	// per-cycle accounting charges a stall to every live slot outside it and
	// then clears the live slots' bits. A warp that retires on its issue is
	// no longer live, so its bit stays set and the next warp placed in the
	// slot is not charged a stall for its first tick (pinned by golden; see
	// TestRecycledSlotFirstTickStallFree).
	issuedMask uint64
	// The per-warp WarpMetrics.ResidentCycles/StallCycles (read only by
	// CAWA, and only for slots reported ready) are settled lazily: acctMark
	// is the SampleCycles value up to which a slot's pair is current, and
	// skipStall marks a freshly placed warp that inherited a set issuedMask
	// bit — its first unsettled tick is not a stall. settlePicks is set when
	// the policy reads the pairs, so tick settles a ready set before handing
	// it over; under the other policies only issue settles.
	acctMark    []int64
	skipStall   uint64
	settlePicks bool

	// issued reports whether any scheduler unit issued during the current
	// tick; the engine reads it after the SM phase to decide whether the
	// whole machine is stalled (a fast-forward precondition).
	issued bool

	// Dormancy: when a tick ends with nothing issued, no pending ALU
	// writebacks and an empty LSQ, this SM is inert — failing Picks have
	// no side effects, so subsequent ticks are pure per-cycle accounting
	// until a completion callback lands (woke), a CTA is placed (woke), or
	// a time boundary arrives (wakeAt: earliest back-off expiry among
	// ready queued warps, BOWS adaptive window, DDOS time-share epoch).
	// Skipped ticks' counters are bulk-credited by flush at wake-up,
	// making dormant execution cycle-exact (see TestFastForwardCycleExact
	// and the golden gate). dormantSince is the first skipped cycle.
	dormant      bool
	woke         bool
	dormantSince int64
	wakeAt       int64
	ffSkipped    int64 // SM ticks skipped while dormant (observability)
	st           stats.Sim
	pcCounts     []int64 // per-PC issue counts (Options.Profile)

	// port caches eng.sys.Port(id); doneFn is bound once so a request's
	// completion allocates no closure.
	port   *mem.Port
	doneFn func(*mem.Request)
	// reqFree pools memory requests (with their access buffers); requests
	// return to the pool in memDone. reqGets/reqPuts count pool traffic so
	// the invariant checker can prove issued == completed + in-flight and
	// catch request leaks (they are not registered metrics).
	reqFree []*mem.Request
	reqGets int64
	reqPuts int64
	// badPicks holds the pick.not-ready violations checkPick found since the
	// last invariant sweep (Options.Check only).
	badPicks []InvariantViolation
}

// The bitmask scoreboards and warp-slot sets require the architectural
// limits to fit.
const (
	_ = uint64(1) << (isa.NumRegs - 1)          // compile-time: NumRegs ≤ 64
	_ = uint64(1) << (isa.NumPreds - 1)         // compile-time: NumPreds ≤ 64
	_ = uint64(1) << (config.MaxWarpsPerSM - 1) // compile-time: WarpsPerSM ≤ 64 (GPU.Validate)
)

// Engine runs one kernel launch to completion. An Engine is entirely
// self-contained (it owns its memory system and SM state), so distinct
// engines may run concurrently on different goroutines; a single Engine
// is not safe for concurrent use.
type Engine struct {
	opt    Options
	launch Launch
	sys    *mem.System
	sms    []*smState
	tab    *simt.Table // launch.Prog decoded once; every warp shares it
	cycle  int64

	// reg is the engine's metrics registry; every entry is a view over
	// live simulator state or a snapshot-time gauge, so the registry adds
	// no per-cycle cost. agg receives the cross-SM stats aggregate in
	// result() so the energy gauges have a stable address to read.
	reg *metrics.Registry
	agg stats.Sim

	nextCTA   int
	totalCTAs int
	ctasDone  int

	// ffJumps / ffSkipped count event-driven clock jumps and the total
	// cycles they covered (reported in Result; excluded from the metrics
	// registry so golden manifests stay identical across clock modes).
	ffJumps   int64
	ffSkipped int64
}

// New builds an engine for the launch. It validates configuration and
// program.
func New(opt Options, launch Launch) (*Engine, error) {
	if err := opt.GPU.Validate(); err != nil {
		return nil, err
	}
	if err := opt.BOWS.Validate(); err != nil {
		return nil, err
	}
	if f := opt.Faults; f != nil && (f.LatencySpike < 0 || f.ReorderJitter < 0 || f.AtomRetryBurst < 0) {
		return nil, fmt.Errorf("sim: fault config: LatencySpike (%d), ReorderJitter (%d) and AtomRetryBurst (%d) must be non-negative",
			f.LatencySpike, f.ReorderJitter, f.AtomRetryBurst)
	}
	// Detector and WASP knobs default in place so pre-existing callers
	// (zero Detector, zero TAGE/WaSP) build exactly the machine they
	// always did.
	if opt.Detector == "" {
		opt.Detector = config.DetectDDOS
	}
	switch opt.Detector {
	case config.DetectDDOS:
		if err := opt.DDOS.Validate(); err != nil {
			return nil, err
		}
	case config.DetectTAGE:
		if opt.TAGE == (config.TAGE{}) {
			opt.TAGE = config.DefaultTAGE()
		}
		if err := opt.TAGE.Validate(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("sim: unknown detector kind %q (valid kinds: %v)",
			opt.Detector, config.Detectors)
	}
	if opt.Sched == config.WASP {
		if opt.WaSP == (config.WaSP{}) {
			opt.WaSP = config.DefaultWaSP()
		}
		if err := opt.WaSP.Validate(); err != nil {
			return nil, err
		}
	}
	if launch.Prog == nil {
		return nil, fmt.Errorf("sim: launch has no program")
	}
	if err := launch.Prog.Validate(); err != nil {
		return nil, err
	}
	if launch.GridCTAs <= 0 || launch.CTAThreads <= 0 {
		return nil, fmt.Errorf("sim: launch geometry must be positive (%d CTAs × %d threads)",
			launch.GridCTAs, launch.CTAThreads)
	}
	warpsPerCTA := (launch.CTAThreads + 31) / 32
	if warpsPerCTA > opt.GPU.WarpsPerSM {
		return nil, fmt.Errorf("sim: CTA of %d threads needs %d warp slots but SM has %d",
			launch.CTAThreads, warpsPerCTA, opt.GPU.WarpsPerSM)
	}
	if launch.MemWords <= 0 {
		return nil, fmt.Errorf("sim: launch must size memory (MemWords)")
	}

	e := &Engine{opt: opt, launch: launch, totalCTAs: launch.GridCTAs}
	e.tab = simt.Decode(launch.Prog)
	if err := e.tab.CheckParams(len(launch.Params)); err != nil {
		return nil, err
	}
	e.sys = mem.NewSystem(opt.GPU.Mem, opt.GPU.NumSMs, opt.GPU.WarpsPerSM, launch.MemWords)
	if opt.Faults != nil {
		e.sys.InjectFaults(*opt.Faults)
	}
	if launch.Setup != nil {
		launch.Setup(e.sys.Words())
	}

	// The selected detector runs in every configuration (it is
	// observation-only unless BOWS consumes it), so detection metrics
	// are always available.
	newDetector := func() core.Detector {
		if opt.Detector == config.DetectTAGE {
			return core.NewTAGESIB(opt.TAGE, opt.GPU.WarpsPerSM)
		}
		return core.NewDDOS(opt.DDOS, opt.GPU.WarpsPerSM)
	}
	slotsPer := opt.GPU.WarpsPerSM / opt.GPU.SchedulersPerSM
	for id := 0; id < opt.GPU.NumSMs; id++ {
		m := &smState{
			id:       id,
			eng:      e,
			warps:    make([]*simt.Warp, opt.GPU.WarpsPerSM),
			ctaOf:    make([]*ctaRec, opt.GPU.WarpsPerSM),
			metrics:  make([]sched.WarpMetrics, opt.GPU.WarpsPerSM),
			regPend:  make([]uint64, opt.GPU.WarpsPerSM),
			predPend: make([]uint64, opt.GPU.WarpsPerSM),
			wbRing:   make([][]wbItem, opt.GPU.ALULat+1),
			acctMark: make([]int64, opt.GPU.WarpsPerSM),
			det:      newDetector(),
			port:     e.sys.Port(id),
			// CAWA is the one policy that reads the lazily kept per-warp pairs.
			settlePicks: opt.Sched == config.CAWA,
		}
		m.doneFn = m.memDone
		if opt.BOWS.Mode != config.BOWSOff {
			m.bows = core.NewBOWS(opt.BOWS, m.det, opt.GPU.WarpsPerSM)
		}
		if opt.Profile {
			m.pcCounts = make([]int64, launch.Prog.Len())
		}
		for u := 0; u < opt.GPU.SchedulersPerSM; u++ {
			slots := make([]int, slotsPer)
			for i := range slots {
				slots[i] = u*slotsPer + i
			}
			base, err := sched.New(opt.Sched, slots, m.metrics,
				sched.Params{GTORotatePeriod: opt.GPU.GTORotatePeriod, WaSP: opt.WaSP})
			if err != nil {
				return nil, err
			}
			unit := &smUnit{policy: base, mask: base.Slots()}
			if m.bows != nil {
				unit.wrapped = core.Wrap(base, m.bows)
				unit.policy = unit.wrapped
			}
			m.units = append(m.units, unit)
		}
		for s := opt.GPU.WarpsPerSM - 1; s >= 0; s-- {
			m.freeSlots = append(m.freeSlots, s)
		}
		e.sys.AttachSync(id, &m.st.Sync)
		e.sms = append(e.sms, m)
	}
	e.reg = metrics.NewRegistry()
	e.registerMetrics()
	return e, nil
}

// Metrics exposes the engine's registry (live values; snapshot at will).
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// registerMetrics builds the engine's metric surface: hierarchical views
// over the live per-SM stats fields plus the scheduler, detector, memory
// and energy subsystem hooks. Registration happens once in New and
// touches no simulation state, so instrumented and uninstrumented runs
// are cycle-identical.
func (e *Engine) registerMetrics() {
	r := e.reg
	r.Int64("engine.cycles", &e.cycle)
	r.Gauge("engine.ctas_done", func() float64 { return float64(e.ctasDone) })
	for _, m := range e.sms {
		p := fmt.Sprintf("sm%d.", m.id)
		m.st.EachCounter(func(name string, v *int64) { r.Int64(p+name, v) })
		e.sys.RegisterMetrics(r, m.id, p+"mem.")
		// The detector's registry prefix follows its kind, so manifests
		// name DDOS counters "ddos.*" (their historical names) and TAGE
		// counters "tage.*".
		dp := p + "ddos."
		if e.opt.Detector == config.DetectTAGE {
			dp = p + "tage."
		}
		m.det.RegisterMetrics(r, dp)
		if m.bows != nil {
			m.bows.RegisterMetrics(r, p+"bows.")
		}
		for j, u := range m.units {
			up := fmt.Sprintf("%ssched.u%d.", p, j)
			if u.wrapped != nil {
				u.wrapped.RegisterMetrics(r, up)
			} else if ins, ok := u.policy.(sched.Instrumented); ok {
				ins.RegisterMetrics(r, up)
			}
		}
	}
	energy.Register(r, "energy.", energy.ByConfigName(e.opt.GPU.Name), &e.agg)
}

// Run simulates to completion and returns the result. It fails on the
// MaxCycles watchdog (livelock/deadlock guard) with a *HangError whose
// report classifies the stall and names the stuck warps; with
// Options.Check set it aborts as soon as a hang is confirmed. A
// memory-system address fault (out-of-range access) is recovered into an
// error wrapping *mem.AddrFault rather than crashing the process; the
// partial result accompanies every failure.
func (e *Engine) Run() (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(*mem.AddrFault)
			if !ok {
				panic(r) // unknown panic: not ours to translate
			}
			res = e.result()
			err = fmt.Errorf("sim: %s on %s/%s: cycle %d: %w",
				e.launch.Prog.Name, e.opt.GPU.Name, e.opt.Sched, e.cycle, f)
		}
	}()

	if p := e.opt.Progress; p != nil {
		// Final store on every exit path so pollers observing a finished
		// run see its true cycle count.
		defer func() { p.Store(e.cycle) }()
	}
	checkEvery := e.opt.CheckEvery
	if checkEvery <= 0 {
		checkEvery = DefaultCheckEvery
	}
	nextCheck := checkEvery
	hm := newHangMonitor(e)
	ff := !e.opt.NoFastForward

	e.dispatch()
	for e.ctasDone < e.totalCTAs {
		if e.cycle >= e.opt.GPU.MaxCycles {
			// Refresh the progress deltas over the final (partial) window so
			// the report reflects the machine's state at abort time, and
			// return the partial result alongside the error so callers can
			// inspect what the machine was doing when the watchdog fired.
			hm.sample()
			return e.result(), &HangError{
				Report:    e.buildHangReport(hm, hm.lastClass),
				Watchdog:  true,
				MaxCycles: e.opt.GPU.MaxCycles,
			}
		}
		if e.cycle >= hm.next {
			if p := e.opt.Progress; p != nil {
				p.Store(e.cycle)
			}
			if class := hm.sample(); class != HangUnknown && e.opt.Check {
				return e.result(), &HangError{Report: e.buildHangReport(hm, class)}
			}
		}
		if e.opt.Check && e.cycle >= nextCheck {
			nextCheck = e.cycle + checkEvery
			if ierr := e.checkInvariants(false); ierr != nil {
				return e.result(), ierr
			}
		}
		e.sys.Tick(e.cycle)
		issued := false
		for _, m := range e.sms {
			m.tickOrSkip(e.cycle)
			issued = issued || m.issued
		}
		if e.nextCTA < e.totalCTAs {
			e.dispatch()
		}
		// Event-driven clock jump: when every SM is dormant and the memory
		// system has no queued per-cycle work, nothing can change until the
		// next event, so jump straight to it. SM counters for the skipped
		// cycles are credited lazily when each SM wakes (smState.flush);
		// only the L2 token refill is time-proportional during idle memory
		// cycles and is credited here. Landing on t-1 makes the e.cycle++
		// below arrive exactly at t, so the loop-top watchdog / hang-sample
		// / invariant boundaries fire at precisely the cycles a per-cycle
		// run would visit.
		if ff && !issued && e.calm() {
			if t := e.nextWake(hm.next, nextCheck); t > e.cycle+1 {
				e.sys.FastForward(t - e.cycle - 1)
				e.ffJumps++
				e.ffSkipped += t - e.cycle - 1
				e.cycle = t - 1
				if p := e.opt.Progress; p != nil {
					p.Store(e.cycle)
				}
			}
		}
		e.cycle++
	}
	// Close out dormant SMs at the cycle the issue loop stopped ticking
	// them: the drain below advances e.cycle without SM ticks, so credits
	// must not extend into it.
	e.flushSMs()
	// Drain in-flight stores so the final memory image is complete. Only
	// the memory system ticks here, so the event-driven clock jumps to the
	// completion wheel's next due cycle whenever the service queues are empty
	// (clamped to MaxCycles so a drain that can never finish — e.g. parked
	// lock waiters with no releaser — reports at the same cycle either way).
	for !e.sys.Quiescent() {
		if e.cycle >= e.opt.GPU.MaxCycles {
			// Like the issue-loop watchdog above: return the partial result
			// alongside the error so callers can inspect the stuck state.
			return e.result(), fmt.Errorf("sim: %s: memory system failed to drain", e.launch.Prog.Name)
		}
		e.sys.Tick(e.cycle)
		e.cycle++
		// Jump only while still non-quiescent: the tick above may have just
		// completed the drain, and a per-cycle run would then exit at the
		// very next cycle, not coast to the next boundary.
		if ff && !e.sys.Quiescent() && e.sys.Idle() {
			t := e.opt.GPU.MaxCycles
			if at, ok := e.sys.NextEventAt(); ok && at < t {
				t = at
			}
			if t > e.cycle {
				e.sys.FastForward(t - e.cycle)
				e.ffJumps++
				e.ffSkipped += t - e.cycle
				e.cycle = t
			}
		}
	}
	if e.opt.Check {
		if ierr := e.checkInvariants(true); ierr != nil {
			return e.result(), ierr
		}
	}
	return e.result(), nil
}

// calm reports whether simulated time alone can change machine state:
// every SM is dormant with no wake-up pending (which implies no ALU
// writebacks and empty LSQs) and the memory system has no queued
// per-cycle work. This is the clock-jump precondition: scoreboards,
// barrier states, port admission and warp readiness are all static until
// the next scheduled event or time boundary.
func (e *Engine) calm() bool {
	for _, m := range e.sms {
		if !m.dormant || m.woke {
			return false
		}
	}
	return e.sys.Idle()
}

// nextWake returns the earliest future cycle at which the calm machine
// can change state: the memory system's next scheduled completion, each
// dormant SM's cached wake-up boundary (earliest back-off expiry among
// ready warps, adaptive delay-limit window, DDOS time-share epoch — see
// smState.sleep), the next hang-monitor sample or invariant sweep, or the
// MaxCycles watchdog. Every candidate is strictly greater than the
// current cycle (boundaries that already fired this cycle were re-armed
// beyond it); a candidate gated on instruction progress reports MaxInt64
// since no instruction can issue while the machine is stalled.
func (e *Engine) nextWake(hmNext, nextCheck int64) int64 {
	t := e.opt.GPU.MaxCycles
	if hmNext < t {
		t = hmNext
	}
	if e.opt.Check && nextCheck < t {
		t = nextCheck
	}
	if at, ok := e.sys.NextEventAt(); ok && at < t {
		t = at
	}
	for _, m := range e.sms {
		if m.wakeAt < t {
			t = m.wakeAt
		}
	}
	return t
}

// tickOrSkip is the per-cycle SM entry point: it skips the tick entirely
// while the SM is dormant and nothing has arrived to wake it, flushes and
// ticks when a wake-up condition holds, and re-evaluates dormancy after
// every real tick.
func (m *smState) tickOrSkip(cycle int64) {
	if m.dormant {
		if !m.woke && cycle < m.wakeAt {
			return // inert: credits accrue lazily until flush
		}
		m.flush(cycle)
	}
	m.tick(cycle)
	if !m.issued && m.wbPending == 0 && !m.eng.opt.NoFastForward && m.port.LSQEmpty() {
		m.sleep(cycle)
	}
}

// sleep marks the SM dormant after a tick in which nothing issued, no ALU
// writeback is pending and the LSQ is empty. In that state a tick's only
// effects are per-cycle accounting (failing picks are side-effect-free —
// see internal/sched — except for blocked-pick counts, whose per-cycle
// contribution is cached here in u.ffBlocked). State can next change at a
// completion callback (memDone sets woke), a CTA placement (placeCTA sets
// woke), or the earliest time boundary computed here: a ready queued
// warp's back-off expiry, the BOWS adaptive window close, or the DDOS
// time-share epoch rotation.
func (m *smState) sleep(cycle int64) {
	wake := m.det.NextEpochBoundary()
	if m.bows != nil {
		if b := m.bows.NextWindowBoundary(); b < wake {
			wake = b
		}
	}
	for _, u := range m.units {
		if u.wrapped == nil {
			continue
		}
		w, blocked := u.wrapped.BackoffStall(m.readyMask(u))
		u.ffBlocked = blocked
		if w < wake {
			wake = w
		}
	}
	m.dormant = true
	m.woke = false
	m.dormantSince = cycle + 1
	m.wakeAt = wake
}

// flush ends a dormant span at cycle (exclusive) and bulk-credits the
// skipped ticks so every counter a per-cycle run would have accrued is
// identical: per-unit idle cycles, residency/stall/backed-off sums (the
// live set cannot change while nothing issues, and BackedOff is sticky —
// it only changes when the warp issues — so the end-of-span sets hold for
// the whole span; the per-warp pairs follow SampleCycles lazily, see
// settle), blocked pick attempts (cached by sleep), and the writeback
// ring position (the ring is empty — only its phase must track cycle).
func (m *smState) flush(cycle int64) {
	delta := cycle - m.dormantSince
	m.dormant = false
	m.woke = false
	if delta <= 0 {
		return
	}
	m.ffSkipped += delta
	m.st.IdleCycles += int64(len(m.units)) * delta
	m.st.SampleCycles += delta
	live := int64(bits.OnesCount64(m.live))
	m.st.ResidentSum += live * delta
	m.st.StallTotal += live * delta
	if m.bows != nil {
		m.st.BackedOffSum += int64(bits.OnesCount64(m.live&m.bows.BackedOffMask())) * delta
	}
	m.wbHead = int((int64(m.wbHead) + delta) % int64(len(m.wbRing)))
	for _, u := range m.units {
		if u.wrapped != nil && u.ffBlocked > 0 {
			u.wrapped.CreditBlockedPicks(u.ffBlocked * delta)
		}
	}
}

// flushSMs settles every dormant SM's lazy credits up to the current
// cycle. Any engine-side reader of SM statistics — the hang monitor, the
// invariant checker, result — must flush first so it observes exactly the
// state a per-cycle run would have.
func (e *Engine) flushSMs() {
	for _, m := range e.sms {
		if m.dormant {
			m.flush(e.cycle)
		}
	}
}

// dispatch places pending CTAs onto SMs with capacity.
func (e *Engine) dispatch() {
	warpsPerCTA := (e.launch.CTAThreads + 31) / 32
	for _, m := range e.sms {
		for e.nextCTA < e.totalCTAs &&
			len(m.ctas) < e.opt.GPU.MaxCTAsPerSM &&
			len(m.freeSlots) >= warpsPerCTA {
			m.placeCTA(e.nextCTA, warpsPerCTA)
			e.nextCTA++
		}
	}
}

func (m *smState) placeCTA(ctaID, warpsPerCTA int) {
	m.woke = true // freshly placed warps are ready: end any dormancy
	l := &m.eng.launch
	cta := simt.NewCTA(int32(ctaID), int32(l.CTAThreads), int32(l.GridCTAs), warpsPerCTA)
	rec := &ctaRec{cta: cta}
	for wi := 0; wi < warpsPerCTA; wi++ {
		slot := m.freeSlots[len(m.freeSlots)-1]
		m.freeSlots = m.freeSlots[:len(m.freeSlots)-1]
		lanes := 32
		if rem := l.CTAThreads - wi*32; rem < 32 {
			lanes = rem
		}
		gtidBase := int32(ctaID*l.CTAThreads + wi*32)
		w := m.eng.tab.NewWarp(cta, wi, slot, m.id, gtidBase, lanes)
		w.Params = l.Params
		m.warps[slot] = w
		m.ctaOf[slot] = rec
		m.metrics[slot] = sched.WarpMetrics{Resident: true, EstRemaining: int64(l.Prog.Len())}
		m.acctMark[slot] = m.st.SampleCycles
		bit := uint64(1) << uint(slot)
		m.skipStall = m.skipStall&^bit | m.issuedMask&bit
		m.refresh(slot)
		rec.slots = append(rec.slots, slot)
	}
	m.ctas = append(m.ctas, rec)
}

// refresh rederives slot's bits in live, sbReady and nextMem from the
// machine state. It must run after every event that can change them: an
// ALU writeback, the slot's own issue, a barrier release or warp
// retirement in its CTA, a memory completion charged to the slot, and CTA
// placement.
func (m *smState) refresh(slot int) {
	bit := uint64(1) << uint(slot)
	m.live &^= bit
	m.sbReady &^= bit
	m.nextMem &^= bit
	w := m.warps[slot]
	if w == nil || w.Done {
		return
	}
	m.live |= bit
	if w.AtBarrier {
		return
	}
	d := m.eng.tab.At(w.PC())
	if m.regPend[slot]&d.RegMask != 0 || m.predPend[slot]&d.PredMask != 0 {
		return
	}
	switch d.Class {
	case simt.ClassMem:
		if m.port.Outstanding(slot) >= m.eng.opt.GPU.Mem.MaxPerWarp {
			return
		}
		m.nextMem |= bit
	case simt.ClassMembar:
		if m.port.Outstanding(slot) != 0 {
			return
		}
	}
	m.sbReady |= bit
}

// refreshCTA refreshes every slot of rec: a barrier release or a warp
// retirement can unblock any warp of the CTA.
func (m *smState) refreshCTA(rec *ctaRec) {
	for _, s := range rec.slots {
		m.refresh(s)
	}
}

// ready reports whether the warp in slot can issue its next instruction:
// readyMask for one slot, for the hang report and the invariant oracle.
func (m *smState) ready(slot int) bool {
	bit := uint64(1) << uint(slot)
	return m.sbReady&bit != 0 && (m.nextMem&bit == 0 || m.port.CanAccept(1))
}

// readyMask returns the slots of u that can issue right now: scoreboard-
// ready, minus those whose next instruction is a memory operation while the
// LSQ is full. It is a snapshot — an issue by an earlier unit of the same
// tick can fill the LSQ — so tick takes it per unit, immediately before the
// unit's pick.
func (m *smState) readyMask(u *smUnit) uint64 {
	ready := m.sbReady & u.mask
	if ready&m.nextMem != 0 && !m.port.CanAccept(1) {
		ready &^= m.nextMem
	}
	return ready
}

// settle brings slot's WarpMetrics.ResidentCycles/StallCycles up to
// SampleCycles. Every tick since the mark was a resident one in which the
// warp did not issue (an issue settles and accounts its own tick), i.e. a
// stall — except the first tick of a warp that inherited a set issuedMask
// bit from the slot's previous occupant.
func (m *smState) settle(slot int) {
	d := m.st.SampleCycles - m.acctMark[slot]
	if d <= 0 {
		return
	}
	m.acctMark[slot] = m.st.SampleCycles
	mt := &m.metrics[slot]
	mt.ResidentCycles += d
	mt.StallCycles += d
	if bit := uint64(1) << uint(slot); m.skipStall&bit != 0 {
		m.skipStall &^= bit
		mt.StallCycles--
	}
}

func (m *smState) tick(cycle int64) {
	// 1. ALU writeback. wbHead tracks cycle % len(wbRing) (advanced at the
	// end of each tick), avoiding the per-cycle int64 modulo.
	ring := &m.wbRing[m.wbHead]
	m.wbPending -= len(*ring)
	var touched uint64
	for _, it := range *ring {
		if it.isPred {
			m.predPend[it.slot] &^= 1 << it.idx
		} else {
			m.regPend[it.slot] &^= 1 << it.idx
		}
		touched |= 1 << uint(it.slot)
	}
	*ring = (*ring)[:0]
	for ; touched != 0; touched &= touched - 1 {
		m.refresh(bits.TrailingZeros64(touched))
	}

	// 2. Detector / controller ticks.
	m.det.Tick(cycle)
	if m.bows != nil {
		m.bows.Tick(cycle)
	}

	// 3. Issue: one instruction per scheduler unit. A unit with an empty
	// ready set is not asked: its pick would fail, and a failing pick has no
	// side effects (dormancy rests on the same rule).
	m.issued = false
	for _, u := range m.units {
		slot := -1
		if ready := m.readyMask(u); ready != 0 {
			if m.settlePicks {
				for s := ready; s != 0; s &= s - 1 {
					m.settle(bits.TrailingZeros64(s))
				}
			}
			slot = u.policy.PickMask(cycle, ready)
			if m.eng.opt.Check {
				slot = m.checkPick(u, slot, ready, cycle)
			}
		}
		if slot < 0 {
			m.st.IdleCycles++
			continue
		}
		m.st.IssueCycles++
		m.issued = true
		m.issue(u, slot, cycle)
	}

	// 4. Per-cycle accounting over the live set (Figure 11 sampling; CAWA's
	// per-warp pairs follow SampleCycles lazily, see settle).
	m.st.SampleCycles++
	m.st.ResidentSum += int64(bits.OnesCount64(m.live))
	m.st.StallTotal += int64(bits.OnesCount64(m.live &^ m.issuedMask))
	m.issuedMask &^= m.live
	if m.bows != nil {
		m.st.BackedOffSum += int64(bits.OnesCount64(m.live & m.bows.BackedOffMask()))
	}
	if m.wbHead++; m.wbHead == len(m.wbRing) {
		m.wbHead = 0
	}
}

// pushWB schedules a scoreboard release ALULat cycles from now.
func (m *smState) pushWB(slot int, isPred bool, idx uint8) {
	at := m.wbHead + int(m.eng.opt.GPU.ALULat)
	if at >= len(m.wbRing) {
		at -= len(m.wbRing)
	}
	m.wbRing[at] = append(m.wbRing[at], wbItem{slot: slot, isPred: isPred, idx: idx})
	m.wbPending++
}

// issue executes one instruction from the warp in slot.
func (m *smState) issue(u *smUnit, slot int, cycle int64) {
	w := m.warps[slot]
	res := w.Execute(cycle)
	in := res.Instr
	lanes := int64(res.ActiveLanes())

	m.st.WarpInstrs++
	m.st.ThreadInstrs += lanes
	m.st.ActiveLaneSum += lanes
	if in.HasAnn(isa.AnnSync) {
		m.st.SyncThreadInstrs += lanes
	}
	// This tick is a resident, non-stall one for the warp: settle what came
	// before it and account it here, ahead of SampleCycles by the one tick
	// step 4 is about to add.
	m.settle(slot)
	bit := uint64(1) << uint(slot)
	m.issuedMask |= bit
	m.skipStall &^= bit
	m.acctMark[slot] = m.st.SampleCycles + 1
	m.metrics[slot].ResidentCycles++
	m.metrics[slot].Issued++
	if m.pcCounts != nil {
		m.pcCounts[res.PC]++
	}
	if tr := m.eng.opt.Tracer; tr != nil {
		tr.Record(trace.Event{Cycle: cycle, SM: m.id, Slot: slot,
			Kind: trace.KindIssue, PC: res.PC, Op: in.Op, Lanes: int(lanes)})
		if m.bows != nil && m.bows.BackedOff(slot) {
			// OnIssue below will exit the backed-off state.
			tr.Record(trace.Event{Cycle: cycle, SM: m.id, Slot: slot,
				Kind: trace.KindBackoffExit, PC: res.PC})
		}
	}
	u.policy.OnIssue(slot, cycle)

	switch {
	case res.IsBranch:
		u.policy.OnBranch(slot, res.BackwardTaken)
		if res.BackwardTaken {
			m.det.OnBranch(slot, res.PC, in.HasAnn(isa.AnnSIB), cycle)
			if in.HasAnn(isa.AnnSIB) {
				m.st.SIBInstrs++
			}
			if u.wrapped != nil {
				if m.bows.IsSIB(res.PC, in) {
					u.wrapped.OnSIB(slot)
					if tr := m.eng.opt.Tracer; tr != nil {
						tr.Record(trace.Event{Cycle: cycle, SM: m.id, Slot: slot,
							Kind: trace.KindSIB, PC: res.PC})
					}
				} else {
					m.bows.OnBackwardNonSIB(slot)
				}
			}
		}
		if in.HasAnn(isa.AnnWaitCheck) {
			m.st.Sync.WaitExitFail += int64(bits.OnesCount32(res.Taken))
			m.st.Sync.WaitExitSuccess += int64(bits.OnesCount32(res.NotTaken))
		}
	case res.IsSetp:
		m.det.OnSetp(slot, res.PC, res.SetpLane, res.SetpV1, res.SetpV2)
		m.predPend[slot] |= 1 << uint(in.PDst)
		m.pushWB(slot, true, uint8(in.PDst))
	case in.Op == isa.OpMembar:
		m.eng.sys.Stats(m.id).FenceOps++
	case in.Op == isa.OpBar:
		w.CTA.Arrive(w)
		if tr := m.eng.opt.Tracer; tr != nil {
			tr.Record(trace.Event{Cycle: cycle, SM: m.id, Slot: slot,
				Kind: trace.KindBarrier, PC: res.PC})
		}
	case in.Op.IsMem():
		if ob := m.eng.opt.Observer; ob != nil && len(res.Mem) > 0 {
			ob.Access(w, res.PC, in, res.Mem)
		}
		m.issueMem(w, in, &res, slot)
	case in.WritesReg():
		m.regPend[slot] |= 1 << uint(in.Dst)
		m.pushWB(slot, false, uint8(in.Dst))
	}

	// The issue moved the warp's PC and may have set scoreboard bits or
	// taken a port slot; bar.sync and retirement can also release the CTA's
	// barrier (CTA.Arrive, warpFinished) and so unblock its other warps.
	if rec := m.ctaOf[slot]; w.Done {
		m.checkCTADone(rec)
		m.refreshCTA(rec)
	} else if in.Op == isa.OpBar {
		m.refreshCTA(rec)
	} else {
		m.refresh(slot)
	}
	if ob := m.eng.opt.Observer; ob != nil && w.CTA.Released {
		w.CTA.Released = false
		ob.BarrierRelease(w.CTA)
	}
}

func (m *smState) issueMem(w *simt.Warp, in *isa.Instr, res *simt.ExecResult, slot int) {
	req := m.getReq()
	// Pooled requests hold a full warp's accesses (getReq). Fields are
	// stored in place: appending a composite stalls on store forwarding.
	accs := req.Accesses[:len(res.Mem)]
	for i := range accs {
		from, to := &res.Mem[i], &accs[i]
		to.Lane, to.Addr = from.Lane, from.Addr
		to.V1, to.V2 = from.V1, from.V2
		to.Result, to.GTID = 0, from.GTID
	}
	req.SM, req.WarpSlot = m.id, slot
	req.Op, req.Ann, req.Vol = in.Op, in.Ann, in.Vol
	req.Accesses = accs
	req.Dst, req.WritesReg = in.Dst, in.WritesReg()
	// The warp travels in the request: the slot may be recycled by a new
	// CTA before a store drains, so writeback must target this warp, not
	// whatever occupies the slot at completion time.
	req.Owner = w
	req.Done = m.doneFn
	if req.WritesReg && len(accs) > 0 {
		m.regPend[slot] |= 1 << uint(in.Dst)
	}
	m.port.Enqueue(req)
}

// getReq takes a pooled memory request (or allocates one). Requests
// return to the pool in memDone, after the memory system's final touch.
func (m *smState) getReq() *mem.Request {
	m.reqGets++
	if n := len(m.reqFree); n > 0 {
		req := m.reqFree[n-1]
		m.reqFree[n-1] = nil
		m.reqFree = m.reqFree[:n-1]
		return req
	}
	return &mem.Request{Accesses: make([]mem.Access, 0, 32)}
}

// memDone is the completion callback for every memory request this SM
// issues: it writes loaded values back to the issuing warp, releases the
// destination-register scoreboard bit, and recycles the request.
func (m *smState) memDone(r *mem.Request) {
	// Any completion can change warp readiness (scoreboard clear,
	// outstanding count, lock wake), so it ends this SM's dormancy.
	m.woke = true
	if r.WritesReg {
		dst := r.Owner.(*simt.Warp).RegRow(r.Dst)
		for i := range r.Accesses {
			a := &r.Accesses[i]
			dst[a.Lane] = a.Result
		}
		if len(r.Accesses) > 0 {
			m.regPend[r.WarpSlot] &^= 1 << uint(r.Dst)
		}
	}
	// The slot's outstanding count dropped too (or, for a fully
	// predicated-off instruction, never rose); the slot may by now hold a
	// different warp than the one that issued r.
	m.refresh(r.WarpSlot)
	r.Owner = nil
	m.reqPuts++
	m.reqFree = append(m.reqFree, r)
}

// checkCTADone frees rec's slots once its last warp has retired.
func (m *smState) checkCTADone(rec *ctaRec) {
	if rec.cta.LiveWarps() != 0 {
		return
	}
	for _, s := range rec.slots {
		m.warps[s] = nil
		m.ctaOf[s] = nil
		m.metrics[s] = sched.WarpMetrics{}
		m.freeSlots = append(m.freeSlots, s)
	}
	m.ctas = slices.DeleteFunc(m.ctas, func(r *ctaRec) bool { return r == rec })
	m.eng.ctasDone++
}

func (e *Engine) result() *Result {
	e.flushSMs()
	r := &Result{Memory: e.sys.Words(), FFJumps: e.ffJumps, FFSkippedCycles: e.ffSkipped}
	for _, m := range e.sms {
		r.FFSkippedSMTicks += m.ffSkipped
	}
	for _, m := range e.sms {
		m.st.Cycles = e.cycle
		m.st.Mem = *e.sys.Stats(m.id)
		m.st.BackoffBlocks = 0
		for _, u := range m.units {
			if u.wrapped != nil {
				m.st.BackoffBlocks += u.wrapped.BlockedPicks()
			}
		}
		if m.bows != nil {
			r.FinalDelayLimits = append(r.FinalDelayLimits, m.bows.DelayLimit())
		}
		r.Detection.Add(m.det.Metrics())
		r.Stats.Add(&m.st)
		r.ConfirmedSIBs = append(r.ConfirmedSIBs, m.det.ConfirmedPCs()...)
		if m.pcCounts != nil {
			if r.PCProfile == nil {
				r.PCProfile = make([]int64, len(m.pcCounts))
			}
			for pc, n := range m.pcCounts {
				r.PCProfile[pc] += n
			}
		}
	}
	slices.Sort(r.ConfirmedSIBs)
	r.ConfirmedSIBs = slices.Compact(r.ConfirmedSIBs)
	// Snapshot after the aggregate lands in e.agg so the energy gauges
	// (registered over &e.agg) read the finished run.
	e.agg = r.Stats
	r.Metrics = e.reg.Snapshot()
	return r
}

// Package config defines simulator configurations: the GPU hardware
// parameters of the paper's Table II (GTX480 "Fermi" and GTX1080Ti
// "Pascal"), the BOWS scheduling parameters, and the DDOS detector
// parameters. Scaled variants keep each SM identical but instantiate
// fewer SMs so the full experiment sweep completes in seconds; scaling is
// documented per experiment in EXPERIMENTS.md.
package config

import "fmt"

// SchedulerKind names a baseline warp scheduling policy.
type SchedulerKind string

const (
	// LRR is loose round-robin.
	LRR SchedulerKind = "LRR"
	// GTO is greedy-then-oldest, with the paper's periodic age rotation
	// (Section IV-C) to avoid livelock on HT/ATM.
	GTO SchedulerKind = "GTO"
	// CAWA is Criticality-Aware Warp Acceleration (Lee et al., ISCA'15),
	// the paper's strongest baseline.
	CAWA SchedulerKind = "CAWA"
	// WASP is the prefetch-mimicking priority-group policy (Joseph et
	// al., arXiv 2404.06156): a small group of warps runs ahead of the
	// rest, warming caches for the trailing group, with phase-based
	// group rotation so every warp eventually leads.
	WASP SchedulerKind = "WASP"
)

// Schedulers lists the three baseline policies in paper order. The
// paper's sweeps (fig9, fig15, ...) iterate exactly this set; WASP is
// deliberately excluded so pre-existing experiments keep their run
// lists. Use AllSchedulers for enumeration in docs and CLI messages.
var Schedulers = []SchedulerKind{LRR, GTO, CAWA}

// AllSchedulers lists every scheduler kind the simulator implements,
// baselines first. CLI usage errors and docs/SCHEDULERS.md enumerate
// from here.
var AllSchedulers = []SchedulerKind{LRR, GTO, CAWA, WASP}

// WaSP holds the WASP policy knobs. Both dimensions are part of the
// variant hash, so sweeping either yields distinct manifest records.
type WaSP struct {
	// GroupSize is the number of warp slots (per scheduler unit) in the
	// priority group that runs ahead of the trailing warps.
	GroupSize int
	// RotatePeriod is the phase length in cycles: each period the
	// priority window advances by GroupSize slots, so leadership rotates
	// through the whole unit without any per-pick state.
	RotatePeriod int64
}

// DefaultWaSP returns the evaluation configuration: a 4-warp priority
// group rotated every 20,000 cycles (short enough that every warp of a
// 24-slot unit leads within ~120k cycles, long enough for the leaders'
// misses to resolve and become trailing-group hits).
func DefaultWaSP() WaSP {
	return WaSP{GroupSize: 4, RotatePeriod: 20000}
}

// Desc renders the WASP knobs as the stable descriptor experiment
// sweeps key their points on, e.g. "g4-r20000".
func (w WaSP) Desc() string {
	return fmt.Sprintf("g%d-r%d", w.GroupSize, w.RotatePeriod)
}

// Validate checks WaSP parameters.
func (w *WaSP) Validate() error {
	switch {
	case w.GroupSize < 1:
		return fmt.Errorf("config: wasp: GroupSize must be positive")
	case w.RotatePeriod < 1:
		return fmt.Errorf("config: wasp: RotatePeriod must be positive")
	}
	return nil
}

// DetectorKind selects the spin-detection mechanism BOWS learns
// spin-inducing branches from.
type DetectorKind string

const (
	// DetectDDOS is the paper's hash-based history detector (default).
	DetectDDOS DetectorKind = "DDOS"
	// DetectTAGE is the tagged-geometric path-history spin predictor
	// (TAGE-SIB): per-warp folded path history of synchronization PCs
	// indexes geometrically-spaced tagged tables with useful-bit
	// allocation, replacing DDOS's value-hash match with a
	// path-signature match.
	DetectTAGE DetectorKind = "TAGE"
)

// Detectors lists the implemented detector kinds, paper default first.
var Detectors = []DetectorKind{DetectDDOS, DetectTAGE}

// TAGE holds the TAGE-SIB predictor parameters. Like DDOS, the
// descriptor covers every dimension the sensitivity sweep varies.
type TAGE struct {
	// Tables is the number of tagged tables (3 or 4 in the classic
	// TAGE design space).
	Tables int
	// BaseHist is the shortest history length; table i uses a history
	// of BaseHist * Ratio^i setp records, rounded to at least i+1.
	BaseHist int
	// Ratio is the geometric spacing between successive table history
	// lengths.
	Ratio int
	// IndexBits sizes each tagged table at 2^IndexBits entries.
	IndexBits int
	// TagBits is the partial tag width stored per entry.
	TagBits int
	// ConfidenceThreshold is t: spin-consistent executions of a
	// backward branch needed before it is confirmed as a SIB (same
	// contract as DDOS.ConfidenceThreshold).
	ConfidenceThreshold int
	// UsefulDecayPeriod ages useful bits after this many failed
	// allocations, in the classic TAGE graceful-decay style.
	UsefulDecayPeriod int
}

// DefaultTAGE returns the evaluation configuration: 4 tables with
// histories 4/8/16/32, 64-entry tables, 8-bit tags, the paper's t=4
// confirmation threshold, and useful-bit decay every 64 failed
// allocations.
func DefaultTAGE() TAGE {
	return TAGE{
		Tables:              4,
		BaseHist:            4,
		Ratio:               2,
		IndexBits:           6,
		TagBits:             8,
		ConfidenceThreshold: 4,
		UsefulDecayPeriod:   64,
	}
}

// Desc renders the predictor parameters as the stable descriptor run
// manifests carry in their detector column, e.g. "TAGE-n4-h4x2-i6t8-t4".
// It is disjoint from every DDOS.Desc value, so DDOS and TAGE-SIB rows
// share the sensitivity table without colliding.
func (t TAGE) Desc() string {
	return fmt.Sprintf("TAGE-n%d-h%dx%d-i%dt%d-t%d",
		t.Tables, t.BaseHist, t.Ratio, t.IndexBits, t.TagBits,
		t.ConfidenceThreshold)
}

// Validate checks TAGE parameters.
func (t *TAGE) Validate() error {
	switch {
	case t.Tables < 1 || t.Tables > MaxTAGETables:
		return fmt.Errorf("config: tage: Tables %d out of range [1,%d]", t.Tables, MaxTAGETables)
	case t.BaseHist < 1:
		return fmt.Errorf("config: tage: BaseHist must be positive")
	case t.Ratio < 2:
		return fmt.Errorf("config: tage: Ratio must be at least 2")
	case t.IndexBits < 1 || t.IndexBits > 16:
		return fmt.Errorf("config: tage: IndexBits %d out of range [1,16]", t.IndexBits)
	case t.TagBits < 1 || t.TagBits > 16:
		return fmt.Errorf("config: tage: TagBits %d out of range [1,16]", t.TagBits)
	case t.ConfidenceThreshold < 1:
		return fmt.Errorf("config: tage: ConfidenceThreshold must be positive")
	case t.UsefulDecayPeriod < 1:
		return fmt.Errorf("config: tage: UsefulDecayPeriod must be positive")
	}
	// Every warp slot keeps a ring of the longest history, so bound it
	// before anything is allocated. A multiply happens only when its
	// product stays within the bound, so none overflows.
	h := t.BaseHist
	for i := 1; i < t.Tables && h <= maxTAGEHist; i++ {
		if h > maxTAGEHist/t.Ratio {
			h = maxTAGEHist + 1
		} else {
			h *= t.Ratio
		}
	}
	if h > maxTAGEHist {
		return fmt.Errorf("config: tage: longest history BaseHist·Ratio^(Tables-1) exceeds %d records", maxTAGEHist)
	}
	return nil
}

const (
	// MaxTAGETables bounds TAGE.Tables.
	MaxTAGETables = 8
	// maxTAGEHist bounds the longest TAGE history, BaseHist·Ratio^(Tables−1),
	// in setp records.
	maxTAGEHist = 1024
)

// HashKind selects the DDOS history hashing function (Table I).
type HashKind string

const (
	// HashXOR folds the value by XORing m-bit groups (paper default).
	HashXOR HashKind = "XOR"
	// HashModulo keeps the least significant m bits (Figure 7's worked
	// example; causes the MS/HL false detections of Figure 14).
	HashModulo HashKind = "MODULO"
)

// DDOS holds the detector parameters (Table II, DDOS-specific rows).
type DDOS struct {
	// Hash selects XOR or MODULO hashing.
	Hash HashKind
	// PathBits is m, the hashed path entry width in bits.
	PathBits int
	// ValueBits is k, the hashed value entry width in bits.
	ValueBits int
	// HistoryLen is l, the number of setp records the history registers
	// hold.
	HistoryLen int
	// ConfidenceThreshold is t: executions of a backward branch by
	// spinning warps needed to confirm it as a SIB.
	ConfidenceThreshold int
	// TimeShare enables a single history register set per SM shared
	// between warps in epochs of TimeShareEpoch cycles (Table I, last
	// sub-table).
	TimeShare      bool
	TimeShareEpoch int64
	// TableSize is the number of SIB-PT entries (paper: conservative 16).
	TableSize int
}

// DefaultDDOS returns the paper's evaluation configuration:
// "h=XOR, t=4, m=k=8, l=8, time sharing disabled".
func DefaultDDOS() DDOS {
	return DDOS{
		Hash:                HashXOR,
		PathBits:            8,
		ValueBits:           8,
		HistoryLen:          8,
		ConfidenceThreshold: 4,
		TimeShare:           false,
		TimeShareEpoch:      1000,
		TableSize:           16,
	}
}

// BOWSMode selects how BOWS learns spin-inducing branches.
type BOWSMode string

const (
	// BOWSOff disables BOWS (baseline scheduling only).
	BOWSOff BOWSMode = "off"
	// BOWSDDOS drives BOWS from the DDOS SIB-PT (the paper's full
	// system).
	BOWSDDOS BOWSMode = "ddos"
	// BOWSStatic drives BOWS from the ground-truth AnnSIB bits that
	// isa.Builder.Build derives from sync code (the paper's "identified
	// by programmer or compiler" mode); used to isolate scheduler
	// effects from detection effects.
	BOWSStatic BOWSMode = "static"
)

// BOWS holds the scheduler-extension parameters (Table II, BOWS-specific
// rows).
type BOWS struct {
	Mode BOWSMode
	// Adaptive enables the Figure 5 delay-limit controller; otherwise
	// DelayLimit is used as a fixed back-off delay limit.
	Adaptive   bool
	DelayLimit int64
	// Adaptive controller parameters (Figure 5 / Table II).
	WindowCycles int64   // T
	DelayStep    int64   // Delay Step
	MinLimit     int64   // Min Limit
	MaxLimit     int64   // Maximum Limit (see note below)
	Frac1        float64 // FRAC1
	Frac2        float64 // FRAC2
}

// DefaultBOWS returns the paper's Table II BOWS configuration with the
// adaptive delay controller enabled.
//
// Note: Table II lists both Min Limit and Maximum Limit as 1000 cycles,
// which contradicts Table III's 14-bit pending-delay counters ("to enable
// back-off delay up to 10,000 cycles"). We use MaxLimit = 10000 and
// record the discrepancy in DESIGN.md.
func DefaultBOWS() BOWS {
	return BOWS{
		Mode:         BOWSDDOS,
		Adaptive:     true,
		DelayLimit:   1000,
		WindowCycles: 1000,
		DelayStep:    250,
		MinLimit:     1000,
		MaxLimit:     10000,
		Frac1:        0.5,
		Frac2:        0.8,
	}
}

// FixedBOWS returns a BOWS configuration with a fixed delay limit, as in
// the Figure 10 sweep.
func FixedBOWS(limit int64) BOWS {
	b := DefaultBOWS()
	b.Adaptive = false
	b.DelayLimit = limit
	return b
}

// Desc renders the configuration as the stable human-readable descriptor
// run manifests carry in their record keys: "off", "<mode>-adaptive" for
// the Figure 5 controller, or "<mode>-d<limit>" for a fixed delay limit
// (keeping the Figure 10 sweep's points distinguishable). internal/report
// joins manifest records on it.
func (b BOWS) Desc() string {
	if b.Mode == BOWSOff {
		return "off"
	}
	if b.Adaptive {
		return string(b.Mode) + "-adaptive"
	}
	return fmt.Sprintf("%s-d%d", b.Mode, b.DelayLimit)
}

// Desc renders the detector parameters as the stable descriptor run
// manifests carry, e.g. "XOR-m8k8-t4-l8" (+"-sh<epoch>" when time
// sharing is enabled). It covers exactly the dimensions Table I varies;
// internal/report joins the sensitivity table on it.
func (d DDOS) Desc() string {
	s := fmt.Sprintf("%s-m%dk%d-t%d-l%d", d.Hash, d.PathBits, d.ValueBits,
		d.ConfidenceThreshold, d.HistoryLen)
	if d.TimeShare {
		s += fmt.Sprintf("-sh%d", d.TimeShareEpoch)
	}
	return s
}

// Memory holds the memory-hierarchy parameters.
type Memory struct {
	// L1: per-SM data cache.
	L1KB     int
	L1Assoc  int
	L1HitLat int64 // cycles from issue to data for an L1 hit
	L1MSHRs  int   // outstanding missed lines per SM
	L2KB     int   // total L2 capacity
	L2Assoc  int
	L2Lat    int64 // additional cycles for an L2 hit
	L2Banks  int   // transactions serviceable per cycle
	DRAMLat  int64 // additional cycles for DRAM access
	DRAMBw   int   // DRAM transactions serviceable per cycle (all SMs)
	AtomLat  int64 // per-line atomic serialization occupancy at L2
	AtomCost int64 // L2 bank tokens consumed per atomic transaction
	// QueueLocks enables the idealized blocking queue-lock comparator
	// (an HQL-style mechanism, Yilmazer & Kaeli via paper §VII): an
	// annotated lock-acquire CAS that would fail parks at the L2 atomic
	// unit and is granted in FIFO order when the lock is released, so
	// acquires never spin. Used by the fig16 "ideal blocking" curve.
	QueueLocks bool
	LSQDepth   int // per-SM load/store queue entries
	MaxPerWarp int // outstanding memory instructions per warp
}

// GPU is a full simulator configuration.
type GPU struct {
	Name string
	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// WarpsPerSM is the number of resident warp slots per SM
	// (threads/SM ÷ 32).
	WarpsPerSM int
	// SchedulersPerSM is the number of warp schedulers per SM; warps are
	// statically partitioned among them.
	SchedulersPerSM int
	// MaxCTAsPerSM bounds concurrently resident CTAs per SM.
	MaxCTAsPerSM int
	// ALULat is the ALU pipeline depth (issue to writeback).
	ALULat int64
	// GTORotatePeriod is the paper's anti-livelock age rotation period
	// for GTO, in cycles (Section IV-C: 50,000).
	GTORotatePeriod int64
	// MaxCycles aborts the simulation if exceeded (livelock watchdog).
	MaxCycles int64

	Mem Memory
	// CoreClockMHz and MemClockMHz are used only for reporting; the
	// simulator is single-clock with memory latencies expressed in core
	// cycles.
	CoreClockMHz int
	MemClockMHz  int
}

// GTX480 returns the paper's Fermi configuration (Table II): 15 SMs,
// 1536 threads/SM (48 warps), 2 schedulers/SM, 16 KB L1, 64 KB/channel L2
// (6 channels).
func GTX480() GPU {
	return GPU{
		Name:            "GTX480",
		NumSMs:          15,
		WarpsPerSM:      48,
		SchedulersPerSM: 2,
		MaxCTAsPerSM:    8,
		ALULat:          4,
		GTORotatePeriod: 50000,
		MaxCycles:       200_000_000,
		CoreClockMHz:    700,
		MemClockMHz:     924,
		Mem: Memory{
			L1KB: 16, L1Assoc: 4, L1HitLat: 28, L1MSHRs: 32,
			L2KB: 384, L2Assoc: 8, L2Lat: 120, L2Banks: 6,
			// Fermi-era atomics serialize heavily on a contended line
			// (the paper's §II notes atomic performance improved by
			// orders of magnitude in later generations).
			DRAMLat: 220, DRAMBw: 4, AtomLat: 32, AtomCost: 1,
			LSQDepth: 32, MaxPerWarp: 2,
		},
	}
}

// GTX1080Ti returns the paper's Pascal configuration (Table II): 28 SMs,
// 2048 threads/SM (64 warps), 4 schedulers/SM, 48 KB L1, 128 KB/channel
// L2. The paper notes Pascal's higher core:memory clock ratio; we model it
// with longer memory latencies in core cycles.
func GTX1080Ti() GPU {
	return GPU{
		Name:            "GTX1080Ti",
		NumSMs:          28,
		WarpsPerSM:      64,
		SchedulersPerSM: 4,
		MaxCTAsPerSM:    8,
		ALULat:          4,
		GTORotatePeriod: 50000,
		MaxCycles:       200_000_000,
		CoreClockMHz:    1481,
		MemClockMHz:     2750,
		Mem: Memory{
			L1KB: 48, L1Assoc: 6, L1HitLat: 32, L1MSHRs: 48,
			L2KB: 1408, L2Assoc: 16, L2Lat: 160, L2Banks: 11,
			// Pascal atomics are far faster per generation (paper §II).
			DRAMLat: 280, DRAMBw: 8, AtomLat: 8, AtomCost: 1,
			LSQDepth: 48, MaxPerWarp: 2,
		},
	}
}

// Scaled returns a copy of g with n SMs (and L2/DRAM bandwidth scaled
// proportionally, never below 1) so small experiment runs keep a
// comparable compute:memory balance. Per-SM structure is unchanged.
func (g GPU) Scaled(n int) GPU {
	if n <= 0 || n >= g.NumSMs {
		return g
	}
	s := g
	ratio := float64(n) / float64(g.NumSMs)
	s.Name = fmt.Sprintf("%s/%dSM", g.Name, n)
	s.NumSMs = n
	scale := func(v int) int {
		w := int(float64(v)*ratio + 0.5)
		if w < 1 {
			w = 1
		}
		return w
	}
	s.Mem.L2Banks = scale(g.Mem.L2Banks)
	s.Mem.DRAMBw = scale(g.Mem.DRAMBw)
	s.Mem.L2KB = scale(g.Mem.L2KB)
	return s
}

// MaxWarpsPerSM is the widest SM the engine models: it keeps per-SM warp
// sets (ready, live, backed-off) as one 64-bit mask each.
const MaxWarpsPerSM = 64

// Validate checks the configuration for internally consistent values.
func (g *GPU) Validate() error {
	switch {
	case g.NumSMs <= 0:
		return fmt.Errorf("config: %s: NumSMs must be positive", g.Name)
	case g.WarpsPerSM <= 0:
		return fmt.Errorf("config: %s: WarpsPerSM must be positive", g.Name)
	case g.WarpsPerSM > MaxWarpsPerSM:
		return fmt.Errorf("config: %s: WarpsPerSM (%d) exceeds the engine's limit of %d warp slots per SM", g.Name, g.WarpsPerSM, MaxWarpsPerSM)
	case g.SchedulersPerSM <= 0:
		return fmt.Errorf("config: %s: SchedulersPerSM must be positive", g.Name)
	case g.WarpsPerSM%g.SchedulersPerSM != 0:
		return fmt.Errorf("config: %s: WarpsPerSM (%d) must divide evenly among %d schedulers", g.Name, g.WarpsPerSM, g.SchedulersPerSM)
	case g.MaxCTAsPerSM <= 0:
		return fmt.Errorf("config: %s: MaxCTAsPerSM must be positive", g.Name)
	case g.ALULat <= 0:
		return fmt.Errorf("config: %s: ALULat must be positive", g.Name)
	case g.Mem.L1KB <= 0 || g.Mem.L1Assoc <= 0 || g.Mem.L2KB <= 0 || g.Mem.L2Assoc <= 0:
		return fmt.Errorf("config: %s: cache geometry must be positive", g.Name)
	case g.Mem.L2Banks <= 0 || g.Mem.DRAMBw <= 0:
		return fmt.Errorf("config: %s: memory bandwidth must be positive", g.Name)
	case g.Mem.L1HitLat <= 0 || g.Mem.L2Lat <= 0 || g.Mem.DRAMLat <= 0:
		// A completion is scheduled at least a cycle after the Tick that
		// schedules it; the memory system's completion wheel relies on it.
		return fmt.Errorf("config: %s: memory latencies must be positive", g.Name)
	case g.Mem.AtomLat <= 0 || g.Mem.AtomCost <= 0:
		return fmt.Errorf("config: %s: atomic costs must be positive", g.Name)
	case g.Mem.LSQDepth <= 0 || g.Mem.MaxPerWarp <= 0 || g.Mem.L1MSHRs <= 0:
		return fmt.Errorf("config: %s: queue depths must be positive", g.Name)
	case g.MaxCycles <= 0:
		return fmt.Errorf("config: %s: MaxCycles must be positive", g.Name)
	}
	return nil
}

// Validate checks DDOS parameters.
func (d *DDOS) Validate() error {
	switch {
	case d.Hash != HashXOR && d.Hash != HashModulo:
		return fmt.Errorf("config: ddos: unknown hash %q", d.Hash)
	case d.PathBits < 1 || d.PathBits > 16:
		return fmt.Errorf("config: ddos: PathBits %d out of range [1,16]", d.PathBits)
	case d.ValueBits < 1 || d.ValueBits > 16:
		return fmt.Errorf("config: ddos: ValueBits %d out of range [1,16]", d.ValueBits)
	case d.HistoryLen < 1:
		return fmt.Errorf("config: ddos: HistoryLen must be positive")
	case d.ConfidenceThreshold < 1:
		return fmt.Errorf("config: ddos: ConfidenceThreshold must be positive")
	case d.TableSize < 1:
		return fmt.Errorf("config: ddos: TableSize must be positive")
	case d.TimeShare && d.TimeShareEpoch <= 0:
		return fmt.Errorf("config: ddos: TimeShareEpoch must be positive when TimeShare is on")
	}
	return nil
}

// Validate checks BOWS parameters.
func (b *BOWS) Validate() error {
	if b.Mode == BOWSOff {
		return nil
	}
	switch {
	case b.Mode != BOWSDDOS && b.Mode != BOWSStatic:
		return fmt.Errorf("config: bows: unknown mode %q", b.Mode)
	case b.DelayLimit < 0:
		return fmt.Errorf("config: bows: DelayLimit must be non-negative")
	case b.Adaptive && (b.WindowCycles <= 0 || b.DelayStep <= 0):
		return fmt.Errorf("config: bows: adaptive controller needs positive window and step")
	case b.Adaptive && (b.MinLimit < 0 || b.MaxLimit < b.MinLimit):
		return fmt.Errorf("config: bows: adaptive limits invalid (min %d, max %d)", b.MinLimit, b.MaxLimit)
	}
	return nil
}

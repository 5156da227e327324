// Deterministic fault injection for the memory system: a seeded
// pseudo-random injector that perturbs completion timing and the L2
// atomic unit without ever touching functional values. Tests use it to
// prove kernels still complete with correct output — and all runtime
// invariants holding — when the memory system misbehaves within its
// timing envelope: latency spikes (a slow DRAM bank), response reordering
// (interconnect jitter between same-cycle completions), and atomic-op
// retry storms (an overloaded atomic ALU NACKing service attempts).
//
// Injection is strictly timing-level, so every simulator correctness
// property (functional output, scoreboard conservation, request-pool
// balance) must survive it; only cycle counts change. A given
// (FaultConfig, workload) pair is fully deterministic: the injector draws
// from its own xorshift64* stream in simulation order.
package mem

// FaultConfig parameterizes the injector. Zero probabilities disable the
// corresponding fault class; a zero-valued config injects nothing.
type FaultConfig struct {
	// Seed initializes the injector's PRNG stream (0 is remapped so a
	// zero-valued seed still produces a valid stream).
	Seed uint64
	// LatencyProb is the per-scheduled-completion probability of a latency
	// spike of LatencySpike extra cycles (a slow bank / row conflict).
	LatencyProb  float64
	LatencySpike int64
	// ReorderProb is the per-scheduled-completion probability of adding a
	// small jitter of up to ReorderJitter cycles, reordering completions
	// that would otherwise retire in issue order.
	ReorderProb   float64
	ReorderJitter int64
	// AtomRetryProb is the per-service probability that the L2 atomic unit
	// NACKs an atomic, forcing AtomRetryBurst consecutive retries (a
	// retry storm on the contended line).
	AtomRetryProb  float64
	AtomRetryBurst int
}

// DefaultFaults returns the standard stress profile used by the fault
// injection test suites and warpsim's -fault-seed flag: frequent small
// jitter, occasional large spikes, and short atomic retry storms.
func DefaultFaults(seed uint64) FaultConfig {
	return FaultConfig{
		Seed:           seed,
		LatencyProb:    0.01,
		LatencySpike:   200,
		ReorderProb:    0.05,
		ReorderJitter:  3,
		AtomRetryProb:  0.02,
		AtomRetryBurst: 4,
	}
}

// Scale returns a copy of the config with every probability multiplied by
// f (clamped to 1), for dialing stress up or down from one profile.
func (c FaultConfig) Scale(f float64) FaultConfig {
	clamp := func(p float64) float64 {
		p *= f
		if p > 1 {
			return 1
		}
		return p
	}
	c.LatencyProb = clamp(c.LatencyProb)
	c.ReorderProb = clamp(c.ReorderProb)
	c.AtomRetryProb = clamp(c.AtomRetryProb)
	return c
}

// enabled reports whether the config injects anything at all.
func (c FaultConfig) enabled() bool {
	return c.LatencyProb > 0 || c.ReorderProb > 0 || c.AtomRetryProb > 0
}

// faultInjector is the runtime state: config plus PRNG and the current
// atomic retry-storm budget.
type faultInjector struct {
	cfg        FaultConfig
	rng        uint64
	retryBurst int
}

func newFaultInjector(cfg FaultConfig) *faultInjector {
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &faultInjector{cfg: cfg, rng: seed}
}

// next advances the xorshift64* stream.
func (fi *faultInjector) next() uint64 {
	x := fi.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	fi.rng = x
	return x * 0x2545f4914f6cdd1d
}

// chance draws one variate and reports whether it fell under p.
func (fi *faultInjector) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	// 53-bit mantissa: uniform in [0,1).
	return float64(fi.next()>>11)/(1<<53) < p
}

// delay returns the extra completion latency for one scheduled event.
func (fi *faultInjector) delay() int64 {
	var d int64
	if fi.chance(fi.cfg.LatencyProb) {
		d += fi.cfg.LatencySpike
	}
	if fi.cfg.ReorderJitter > 0 && fi.chance(fi.cfg.ReorderProb) {
		d += int64(fi.next() % uint64(fi.cfg.ReorderJitter+1))
	}
	return d
}

// forceAtomRetry reports whether the atomic unit must NACK this service
// attempt. A triggered storm forces the next AtomRetryBurst attempts too.
func (fi *faultInjector) forceAtomRetry() bool {
	if fi.retryBurst > 0 {
		fi.retryBurst--
		return true
	}
	if fi.chance(fi.cfg.AtomRetryProb) {
		if fi.cfg.AtomRetryBurst > 1 {
			fi.retryBurst = fi.cfg.AtomRetryBurst - 1
		}
		return true
	}
	return false
}

// InjectFaults attaches a deterministic fault injector to the memory
// system. Call before the first Tick; a config that injects nothing
// leaves the system untouched.
func (s *System) InjectFaults(cfg FaultConfig) {
	if !cfg.enabled() {
		return
	}
	s.inj = newFaultInjector(cfg)
	s.events = newWheel(s.horizon())
}

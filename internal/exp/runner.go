package exp

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"warpsched/internal/config"
	"warpsched/internal/kernels"
	"warpsched/internal/metrics"
	"warpsched/internal/sim"
)

// Spec is the one description of a run: machine, scheduler, BOWS,
// detector and kernel. Every experiment's sweep is a slice of these, and
// internal/server and cmd/warpsim build the same type, so a configuration
// has one identity (VariantHash), one manifest record (Record) and one
// engine option set (Cfg.Options) whichever tool runs it.
type Spec struct {
	// GPU, Sched, BOWS and DDOS select the machine and policies.
	GPU   config.GPU
	Sched config.SchedulerKind
	BOWS  config.BOWS
	DDOS  config.DDOS
	// Detector selects the spin detector (empty means DDOS, matching
	// sim.Options). TAGE and WaSP only carry values for TAGE-detector and
	// WASP-scheduler specs respectively; no experiment sets them, only the
	// golden sweep's zoo records and cmd/warpsim, which the benchmark's
	// engine probes measure.
	Detector config.DetectorKind
	TAGE     config.TAGE
	WaSP     config.WaSP
	// Kernel is the program plus launch (and, when registered, verifier).
	// A nil Verify skips functional verification — the case for inline
	// user-submitted programs, which have no golden output.
	Kernel *kernels.Kernel
	// MaxCycles, when positive, replaces the harness's experiment cycle
	// clamp as the watchdog budget; the submitter owns the ceiling
	// (internal/server admission control bounds it per job). Experiment
	// sweeps leave it zero.
	MaxCycles int64
	// Progress, when non-nil, is handed to the engine (sim.Options.Progress)
	// so the submitter can poll cycles simulated while the job runs.
	Progress *atomic.Int64
}

// Normalized returns the spec with the watchdog budget resolved exactly
// as a local run resolves it (Cfg.Options): an explicit MaxCycles
// overrides the machine's, otherwise the experiment clamp applies; the
// effective budget lands in both MaxCycles and GPU.MaxCycles.
// internal/server.SpecRequest needs the normalized form because the
// budget keys the result's content address.
func (s Spec) Normalized() Spec {
	switch {
	case s.MaxCycles > 0:
		s.GPU.MaxCycles = s.MaxCycles
	case s.GPU.MaxCycles > expMaxCycles:
		s.GPU.MaxCycles = expMaxCycles
	}
	s.MaxCycles = s.GPU.MaxCycles
	return s
}

// Outcome pairs a spec's result with its error. On a watchdog abort Res
// holds the partial state (see Cfg.run). Only Execute hands outcomes
// back; a sweep keeps each run's record instead (runAll).
type Outcome struct {
	Res *sim.Result
	Err error
}

// pool calls do(i) for every index 0..n-1 on a bounded worker pool. Each
// sim.Engine is self-contained (own memory system, own SM state) and
// every kernel's Setup/Verify closures only read its inputs, which the
// first of them synthesizes once under a sync.OnceValue, so runs are
// independent: parallelism is across engines, never within
// one, and each run's cycle-level determinism is untouched. Callers store
// results by index, so they — and every table rendered from them — are
// byte-identical for any worker count. With one worker, runs execute one
// at a time in submission order.
//
// Progress lines are funneled through a single channel drained by one
// goroutine, so Cfg.Progress is never called concurrently. Completion
// lines arrive in completion order (that much is timing-dependent);
// per-run detail lines that experiments emit while collecting results
// stay in submission order.
func (c Cfg) pool(n int, do func(i int, progress chan<- string)) {
	jobs := c.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}

	var progress chan string
	drained := make(chan struct{})
	if c.Progress != nil {
		progress = make(chan string, jobs)
		go func() {
			for line := range progress {
				c.Progress(line)
			}
			close(drained)
		}()
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				do(i, progress)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if progress != nil {
		close(progress)
		<-drained
	}
}

// runAll executes a sweep's specs on the worker pool and returns each
// run's machine-total record (sweepRecord) in submission order: the only
// thing a sweep keeps of a finished run.
func (c Cfg) runAll(specs []Spec) []metrics.RunRecord {
	out := make([]metrics.RunRecord, len(specs))
	c.pool(len(specs), func(i int, progress chan<- string) {
		out[i] = c.runOne(&specs[i], i, len(specs), progress)
	})
	return out
}

// Execute runs externally submitted specs (internal/server's daemon jobs)
// on the same bounded worker pool (Cfg.Jobs) and returns their outcomes,
// live results included, in submission order. Panics are recovered into
// *PanicError records, identically to experiment sweeps. Cfg.Progress,
// Cfg.Collect and Cfg.Journal are not consulted and no record is built —
// callers that report, cache or persist results own that layer.
func (c Cfg) Execute(specs []Spec) []Outcome {
	out := make([]Outcome, len(specs))
	c.Progress = nil
	c.pool(len(specs), func(i int, _ chan<- string) { out[i] = c.guardedRun(&specs[i]) })
	return out
}

// PanicError records a simulation that panicked: the spec it was running,
// the panic value, and the goroutine stack at recovery time. The runner
// converts panics into failed-run records so one crashing configuration
// cannot take down a sweep.
type PanicError struct {
	Kernel string
	Sched  config.SchedulerKind
	Value  string
	Stack  string
}

// Error includes the stack so manifests and journals carry the full
// diagnosis; progress lines use Brief.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic during %s/%s: %s\n%s", e.Kernel, e.Sched, e.Value, e.Stack)
}

// Brief is the one-line form (panic value without the stack).
func (e *PanicError) Brief() string {
	return fmt.Sprintf("panic: %s", e.Value)
}

// guardedRun executes one simulation with a panic barrier: a panic that
// escapes the engine (its own recovery handles known fault types) becomes
// a *PanicError instead of crashing the sweep.
func (c Cfg) guardedRun(sp *Spec) (o Outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = Outcome{Err: &PanicError{Kernel: sp.Kernel.Name, Sched: sp.Sched,
				Value: fmt.Sprint(r), Stack: string(debug.Stack())}}
		}
	}()
	res, err := c.run(sp)
	return Outcome{Res: res, Err: err}
}

// runOne gets a spec's record one of two ways — replayed from the
// journal, else simulated on the local engine, converted once
// (sweepRecord) and journaled for the next spec (or invocation) that
// asks — and reports its completion.
func (c Cfg) runOne(sp *Spec, i, n int, progress chan<- string) metrics.RunRecord {
	var key string
	if c.Journal != nil {
		key = ContentKey(*sp)
		if rec, ok := c.Journal.lookup(key); ok {
			c.collect(&rec, 0)
			c.report(sp, i, n, &rec, nil, " (from journal)", progress)
			return rec
		}
	}
	start := time.Now()
	o := c.guardedRun(sp)
	rec := sweepRecord(sp, o)
	if c.Journal != nil {
		if jerr := c.Journal.record(key, rec); jerr != nil && rec.Err == "" {
			// A run whose record cannot be journaled must not be reported
			// as resumable work; surface the write failure.
			rec.Err = jerr.Error()
		}
	}
	c.collect(&rec, float64(time.Since(start).Microseconds())/1e3)
	c.report(sp, i, n, &rec, o.Err, "", progress)
	return rec
}

// collect adds the run's record, tagged with the submitting experiment
// and its wall time, to the manifest collector, if any. A collection
// failure means two specs hashed to one manifest key with different
// counters — a determinism violation worth failing the sweep over, so it
// becomes the run's error, but never one that masks a simulation error.
func (c Cfg) collect(rec *metrics.RunRecord, wallMS float64) {
	if c.Collect == nil {
		return
	}
	r := *rec
	r.Exp, r.WallMS = c.Exp, wallMS
	if err := c.Collect.add(r); err != nil && rec.Err == "" {
		rec.Err = err.Error()
	}
}

// report sends the run's one-line completion to the pool's progress
// funnel, which is nil when Cfg.Progress is. err is the simulation's own
// error, nil for a replayed run: only it carries a hang diagnosis or a
// panic value as a type.
func (c Cfg) report(sp *Spec, i, n int, rec *metrics.RunRecord, err error, suffix string, progress chan<- string) {
	if progress == nil {
		return
	}
	progress <- fmt.Sprintf("[%d/%d] %s %s%s on %s: %s%s", i+1, n,
		sp.Kernel.Name, sp.Sched, bowsTag(sp.BOWS), sp.GPU.Name, outcome(rec, err), suffix)
}

func bowsTag(b config.BOWS) string {
	if b.Mode == config.BOWSOff {
		return ""
	}
	return "+BOWS"
}

func outcome(rec *metrics.RunRecord, err error) string {
	var he *sim.HangError
	var pe *PanicError
	switch {
	case errors.As(err, &he):
		// Hang diagnosis: classification plus the top stuck warps.
		return he.Summary()
	case errors.As(err, &pe):
		return pe.Brief()
	case rec.Err != "" && rec.Cycles > 0:
		return fmt.Sprintf("watchdog at %d cycles", rec.Cycles)
	case rec.Err != "":
		// First line only: journal-replayed panic records carry stacks.
		return strings.SplitN(rec.Err, "\n", 2)[0]
	default:
		return fmt.Sprintf("%d cycles", rec.Cycles)
	}
}

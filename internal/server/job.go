package server

import (
	"fmt"
	"sync"

	"warpsched/internal/analysis"
	"warpsched/internal/analysis/race"
	"warpsched/internal/config"
	"warpsched/internal/exp"
	"warpsched/internal/isa"
	"warpsched/internal/kernels"
	"warpsched/internal/sim"
)

// JobConfig is the wire form of a job's simulation configuration. Every
// field here changes simulation results and therefore the cache key;
// the worker count, which cannot, is a server-wide option instead,
// matching the manifest-hash rule that `-j`/`-no-ff` never key results.
type JobConfig struct {
	// GPU selects the machine: "fermi" (GTX480, default) or "pascal"
	// (GTX1080Ti).
	GPU string `json:"gpu,omitempty"`
	// SMs scales the machine down to this many SMs (0 = full machine).
	SMs int `json:"sms,omitempty"`
	// Sched is the baseline scheduler: LRR, GTO (default) or CAWA.
	Sched string `json:"sched,omitempty"`
	// BOWS selects the back-off mode: "off" (default), "ddos" or "static".
	BOWS string `json:"bows,omitempty"`
	// Delay, when non-nil, fixes the back-off delay limit in cycles
	// instead of the adaptive controller (ignored when BOWS is off).
	Delay *int64 `json:"delay,omitempty"`
	// Hash is the DDOS hashing function: "XOR" (default) or "MODULO".
	Hash string `json:"hash,omitempty"`
	// MaxCycles is the watchdog budget for this job. Zero uses the server
	// ceiling; values above the ceiling are rejected at admission.
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// Quick selects the reduced-size variant of a registered kernel (the
	// sizes the test suites and the golden gate run).
	Quick bool `json:"quick,omitempty"`
}

// JobRequest is the body of POST /v1/jobs: either a registered kernel
// name or an inline ISA program, plus the simulation configuration.
type JobRequest struct {
	// Kernel names a registered benchmark kernel (see cmd/warpsim -list).
	// Mutually exclusive with Source.
	Kernel string `json:"kernel,omitempty"`
	// Source is an inline ISA program (the assembly dialect of
	// internal/isa). Inline programs carry no functional verifier; the
	// launch geometry below is required.
	Source string `json:"source,omitempty"`
	// Name labels an inline program (default "inline").
	Name string `json:"name,omitempty"`
	// GridCTAs, CTAThreads, MemWords and Params are the launch geometry
	// for inline programs (ignored for registered kernels, whose
	// registration fixes them).
	GridCTAs   int      `json:"grid_ctas,omitempty"`
	CTAThreads int      `json:"cta_threads,omitempty"`
	MemWords   int      `json:"mem_words,omitempty"`
	Params     []uint32 `json:"params,omitempty"`
	// AllowUnsafe admits an inline program despite inter-warp race
	// analyzer findings (data races, barrier phasing, lock discipline —
	// see internal/analysis/race). The structural/dataflow gate still
	// applies: a program that cannot run correctly is rejected
	// regardless. Registered kernels never need it.
	AllowUnsafe bool `json:"allow_unsafe,omitempty"`
	// Config tunes the simulation; the zero value is GTO on the full
	// Fermi machine with BOWS off.
	Config JobConfig `json:"config"`
	// Wait makes the POST synchronous: the response carries the finished
	// job. Without it the response returns immediately with the job id
	// for polling. It does not affect results, so it does not participate
	// in the cache key.
	Wait bool `json:"wait,omitempty"`
}

// RequestError is an admission failure: a malformed or invalid job that
// was never enqueued. Status is the HTTP status the handler maps it to.
type RequestError struct {
	Status int
	Msg    string
	// Findings carries the static-analysis diagnostics when admission
	// rejected the program (HTTP 422).
	Findings []analysis.Finding
	// RetryAfter, when positive, is the suggested wait in seconds before
	// resubmitting (sent as the Retry-After header on the queue-full 429).
	RetryAfter int
}

// Error returns the admission failure message.
func (e *RequestError) Error() string { return e.Msg }

func badRequest(format string, args ...any) *RequestError {
	return &RequestError{Status: 400, Msg: fmt.Sprintf(format, args...)}
}

// Resolve validates the request and builds the runnable spec. The
// returned spec is fully determined: GPU.MaxCycles carries the admitted
// watchdog budget so it participates in the variant hash. Unset options
// take their documented defaults, so a zero Options resolves exactly
// like a default server admits.
func (o Options) Resolve(req *JobRequest) (exp.Spec, *RequestError) {
	o = o.withDefaults()
	var s exp.Spec

	k, rerr := o.resolveKernel(req)
	if rerr != nil {
		return s, rerr
	}
	// Admission-time static analysis: reject programs whose CFG,
	// dataflow or sync discipline is broken before they can occupy a
	// worker. Only inline submissions need it — registered kernels pass
	// by construction (warplint gates them in CI) and skipping them
	// keeps the admission path fast enough for cache-hit traffic.
	if req.Source != "" {
		if rep := analysis.Analyze(k.Launch.Prog); !rep.Clean() {
			return s, &RequestError{Status: 422,
				Msg:      fmt.Sprintf("program %s failed static analysis (%d findings)", k.Name, len(rep.Findings)),
				Findings: rep.Findings}
		}
		// The inter-warp pass runs at the submitted launch geometry, so
		// e.g. a cross-CTA race only fires when grid_ctas > 1. Unlike the
		// structural gate it has a documented escape hatch: allow_unsafe
		// admits the program anyway (the analyzer is conservative, and a
		// user reproducing a racy kernel on purpose needs the run).
		if !req.AllowUnsafe {
			rrep := race.Analyze(k.Launch.Prog, race.Options{
				GridCTAs:   int32(k.Launch.GridCTAs),
				CTAThreads: int32(k.Launch.CTAThreads),
			})
			if !rrep.Clean() {
				return s, &RequestError{Status: 422,
					Msg: fmt.Sprintf("program %s failed race analysis (%d findings; resubmit with allow_unsafe to run anyway)",
						k.Name, len(rrep.Findings)),
					Findings: rrep.Findings}
			}
		}
	}
	s.Kernel = k

	// The machine and policy names resolve through the shared vocabulary
	// (internal/config), so the 400 messages list the valid names exactly
	// as cmd/warpsim's usage errors do.
	var err error
	if s.GPU, err = config.ParseGPU(req.Config.GPU, req.Config.SMs); err != nil {
		return s, badRequest("%v", err)
	}
	if s.Sched, err = config.ParseScheduler(req.Config.Sched); err != nil {
		return s, badRequest("%v", err)
	}
	if s.Sched == config.WASP {
		return s, badRequest("scheduler WASP is not served: the wire format carries no WaSP knobs")
	}
	if s.BOWS, err = config.ParseBOWS(req.Config.BOWS, req.Config.Delay); err != nil {
		return s, badRequest("%v", err)
	}
	if s.DDOS, err = config.ParseDDOS(req.Config.Hash); err != nil {
		return s, badRequest("%v", err)
	}

	max := req.Config.MaxCycles
	switch {
	case max < 0:
		return s, badRequest("max_cycles must be non-negative")
	case max == 0:
		max = o.MaxJobCycles
	case max > o.MaxJobCycles:
		return s, badRequest("max_cycles %d exceeds the server ceiling %d", max, o.MaxJobCycles)
	}
	// The budget is part of the result (a watchdog abort at 1M cycles is
	// a different outcome than one at 10M), so it must key the cache:
	// store it in the GPU config, which the variant hash covers.
	s.GPU.MaxCycles = max
	s.MaxCycles = max
	return s, nil
}

// fullSuite and quickSuite are the registered kernel suites, each
// assembled once on first use. Building a suite builds programs only: a
// kernel synthesizes its inputs on its first launch, so a daemon pays
// for the inputs of the kernels it serves, not of a whole scale. Kernels
// are safe to share once built (their inputs are synthesized once, under
// a sync.OnceValue, and only read after), so one instance serves every
// admission (resolveKernel) and its inverse (registeredVariant) —
// admitting a registered kernel stays at microseconds.
var (
	fullSuite = sync.OnceValue(func() []*kernels.Kernel {
		return append(kernels.SyncSuite(), kernels.SyncFreeSuite()...)
	})
	quickSuite = sync.OnceValue(func() []*kernels.Kernel {
		return append(kernels.QuickSyncSuite(), kernels.QuickSyncFreeSuite()...)
	})
)

// maxInlineInstrs bounds an inline program. Resolve analyzes inline
// programs inside the POST handler, before any queue limit applies. The
// race analyzer proves each pair of address forms once, so guarded
// stores sharing one form are cheap: race.Analyze takes 1.3–2 ms on
// race's 256-instruction ladder and 20–23 ms at 1k instructions
// (GOMAXPROCS 1, 2-core Xeon, best of 15). Stores whose forms all differ
// still need one proof per pair: about 22–24 ms at 256 instructions and
// 0.4 s at 1k on a ladder whose every store adds its own constant to
// %gtid. So the ceiling stays at 256, 3.4× the longest registered kernel
// (TB, 75 instructions).
const maxInlineInstrs = 256

// resolveKernel maps the request to a program: a registered kernel
// (full-size or, with config.quick, the reduced test-suite variant) or a
// parsed inline program with caller-supplied launch geometry.
func (o Options) resolveKernel(req *JobRequest) (*kernels.Kernel, *RequestError) {
	switch {
	case req.Kernel != "" && req.Source != "":
		return nil, badRequest("kernel and source are mutually exclusive")
	case req.Kernel != "":
		suite, what := fullSuite, "kernel"
		if req.Config.Quick {
			suite, what = quickSuite, "quick kernel"
		}
		for _, k := range suite() {
			if k.Name == req.Kernel {
				return k, nil
			}
		}
		return nil, badRequest("unknown %s %q", what, req.Kernel)
	case req.Source != "":
		name := req.Name
		if name == "" {
			name = "inline"
		}
		prog, err := isa.Parse(name, req.Source)
		if err != nil {
			return nil, badRequest("parse inline program: %v", err)
		}
		switch {
		case prog.Len() > maxInlineInstrs:
			return nil, badRequest("program has %d instructions; the server ceiling is %d", prog.Len(), maxInlineInstrs)
		case req.GridCTAs <= 0 || req.CTAThreads <= 0:
			return nil, badRequest("inline programs need positive grid_ctas and cta_threads")
		case req.MemWords <= 0:
			return nil, badRequest("inline programs need positive mem_words")
		case req.MemWords > o.MaxMemWords:
			return nil, badRequest("mem_words %d exceeds the server ceiling %d", req.MemWords, o.MaxMemWords)
		}
		return &kernels.Kernel{
			Name:  name,
			Class: kernels.ClassSync,
			Desc:  "inline submission",
			Launch: sim.Launch{Prog: prog, GridCTAs: req.GridCTAs,
				CTAThreads: req.CTAThreads, MemWords: req.MemWords,
				Params: req.Params},
		}, nil
	default:
		return nil, badRequest("request needs a kernel name or inline source")
	}
}

// CacheKey is the content address of a spec's result: exp.ContentKey,
// under the name the cache, the store and the wire use. For a resolved
// spec the variant hash inside it covers the admitted MaxCycles budget.
func CacheKey(s exp.Spec) string { return exp.ContentKey(s) }

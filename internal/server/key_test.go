package server

import (
	"fmt"
	"strings"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/exp"
	"warpsched/internal/kernels"
	"warpsched/internal/sim"
)

// testSrc is a tiny analysis-clean inline program used across the
// server tests: a counted ALU loop whose iteration count comes from
// param 0, so run length is controllable per-test.
const testSrc = `
  ld.param %r2, 0
  mov %r1, 0
loop:
  add %r1, %r1, 1
  setp.lt %p1, %r1, %r2
  @%p1 bra loop
  exit
`

// inlineReq builds a request for testSrc with the given iteration count.
func inlineReq(iters uint32) *JobRequest {
	return &JobRequest{Source: testSrc, Name: "alu-loop",
		GridCTAs: 1, CTAThreads: 32, MemWords: 64, Params: []uint32{iters},
		Config: JobConfig{SMs: 1}}
}

// keyOf resolves a request under default options and returns its cache
// key, failing the test on admission errors.
func keyOf(t *testing.T, o Options, req *JobRequest) string {
	t.Helper()
	spec, rerr := o.withDefaults().Resolve(req)
	if rerr != nil {
		t.Fatalf("resolve: %v", rerr)
	}
	return CacheKey(spec)
}

// TestCacheKeySensitivity: every result-affecting request field must
// change the cache key, or the cache would serve wrong results.
func TestCacheKeySensitivity(t *testing.T) {
	var o Options
	base := func() *JobRequest {
		return &JobRequest{Kernel: "HT",
			Config: JobConfig{SMs: 2, Quick: true, Sched: "GTO", BOWS: "off"}}
	}
	baseKey := keyOf(t, o, base())
	delay := int64(64)

	mutations := map[string]func(r *JobRequest){
		"kernel":     func(r *JobRequest) { r.Kernel = "ST" },
		"gpu":        func(r *JobRequest) { r.Config.GPU = "pascal" },
		"sms":        func(r *JobRequest) { r.Config.SMs = 4 },
		"sched":      func(r *JobRequest) { r.Config.Sched = "CAWA" },
		"bows":       func(r *JobRequest) { r.Config.BOWS = "ddos" },
		"max_cycles": func(r *JobRequest) { r.Config.MaxCycles = 1_000_000 },
	}
	seen := map[string]string{baseKey: "base"}
	for name, mutate := range mutations {
		req := base()
		mutate(req)
		k := keyOf(t, o, req)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q produced the same key as %q (%s)", name, prev, k)
		}
		seen[k] = name
	}

	// BOWS sub-fields only matter once BOWS is on.
	ddos := base()
	ddos.Config.BOWS = "ddos"
	ddosKey := keyOf(t, o, ddos)
	for name, mutate := range map[string]func(r *JobRequest){
		"delay": func(r *JobRequest) { r.Config.Delay = &delay },
		"hash":  func(r *JobRequest) { r.Config.Hash = "MODULO" },
		"mode":  func(r *JobRequest) { r.Config.BOWS = "static" },
	} {
		req := base()
		req.Config.BOWS = "ddos"
		mutate(req)
		if k := keyOf(t, o, req); k == ddosKey {
			t.Errorf("ddos mutation %q did not change the key", name)
		}
	}

	// Stability: resolving the identical request twice gives the same key.
	if again := keyOf(t, o, base()); again != baseKey {
		t.Errorf("same request resolved to different keys: %s vs %s", baseKey, again)
	}
}

// TestCacheKeyInlineSensitivity: for inline programs the key must cover
// the instruction stream, launch geometry and parameters.
func TestCacheKeyInlineSensitivity(t *testing.T) {
	var o Options
	baseKey := keyOf(t, o, inlineReq(100))

	for name, mutate := range map[string]func(r *JobRequest){
		"params":      func(r *JobRequest) { r.Params = []uint32{200} },
		"grid":        func(r *JobRequest) { r.GridCTAs = 2 },
		"cta_threads": func(r *JobRequest) { r.CTAThreads = 64 },
		"mem_words":   func(r *JobRequest) { r.MemWords = 128 },
		"name":        func(r *JobRequest) { r.Name = "other" },
		"instruction": func(r *JobRequest) {
			r.Source = strings.Replace(r.Source, "add %r1, %r1, 1", "add %r1, %r1, 2", 1)
		},
	} {
		req := inlineReq(100)
		mutate(req)
		if k := keyOf(t, o, req); k == baseKey {
			t.Errorf("inline mutation %q did not change the key", name)
		}
	}
}

// TestCacheKeyCanonicalSource: the program is content-addressed by its
// canonical assembly, so comments, blank lines and whitespace do not
// change the key — two routes to the same instruction stream share one
// cached result.
func TestCacheKeyCanonicalSource(t *testing.T) {
	var o Options
	baseKey := keyOf(t, o, inlineReq(100))

	noisy := inlineReq(100)
	noisy.Source = `
  // counted ALU loop        # with comments
  ld.param    %r2,    0

  mov %r1, 0   // init
loop:
  add %r1, %r1, 1
  setp.lt %p1, %r1, %r2
  @%p1 bra loop
  exit
`
	if k := keyOf(t, o, noisy); k != baseKey {
		t.Errorf("comment/whitespace changes altered the key: %s vs %s", k, baseKey)
	}
}

// TestCacheKeyExcludesExecutionStrategy: server-wide execution-strategy
// knobs (worker count, invariant checking, queue depth) must NOT key
// results — they cannot change what a deterministic simulation computes,
// only how it is scheduled, matching the manifest-hash rule for -j/-no-ff.
func TestCacheKeyExcludesExecutionStrategy(t *testing.T) {
	plain := keyOf(t, Options{}, inlineReq(100))
	for name, o := range map[string]Options{
		"workers": {Workers: 2},
		"check":   {Check: true},
		"queue":   {QueueDepth: 1},
	} {
		if k := keyOf(t, o, inlineReq(100)); k != plain {
			t.Errorf("server option %q leaked into the cache key", name)
		}
	}
}

// quickKernel returns the reduced-size registered kernel by name.
func quickKernel(t *testing.T, name string) *kernels.Kernel {
	t.Helper()
	for _, k := range kernels.QuickSyncSuite() {
		if k.Name == name {
			return k
		}
	}
	t.Fatalf("no quick kernel %q", name)
	return nil
}

// TestIdentityPinned pins exp.VariantHash and CacheKey to literals, so a
// refactor of the run description cannot silently re-key golden records,
// full.json rows or on-disk store entries. The GTO, CAWA+BOWS, WASP+BOWS
// and TAGE variants are the HT records of
// internal/exp/testdata/golden/quick.json; the rest were read from the
// commit before exp.Spec became the single run description (PR 12). That
// commit's Spec could not carry the WASP and TAGE dimensions, so their
// cache keys are first pinned here. A sim.Version bump re-keys every
// cache entry on purpose and is applied to the expectation, not pinned.
func TestIdentityPinned(t *testing.T) {
	gpu := config.GTX480().Scaled(2)
	modulo := config.DefaultDDOS()
	modulo.Hash = config.HashModulo
	ht, atm := quickKernel(t, "HT"), quickKernel(t, "ATM")
	resolve := func(req *JobRequest) exp.Spec {
		spec, rerr := Options{}.Resolve(req)
		if rerr != nil {
			t.Fatalf("resolve: %v", rerr)
		}
		return spec
	}
	delay := int64(64)
	const htAsm, atmAsm, inlineAsm = "80b042e043bdcb5e", "1ffbcd4517716aea", "fc1383e9e85f2dcf"

	for _, tc := range []struct {
		name         string
		spec         exp.Spec
		asm, variant string
	}{
		{"GTO", exp.Spec{GPU: gpu, Sched: config.GTO, BOWS: bowsOff(),
			DDOS: config.DefaultDDOS(), Kernel: ht}, htAsm, "6f9505f47101f00b"},
		{"CAWA+BOWS", exp.Spec{GPU: gpu, Sched: config.CAWA, BOWS: config.DefaultBOWS(),
			DDOS: config.DefaultDDOS(), Kernel: ht}, htAsm, "3b624365f9edfdef"},
		{"fixed-delay", exp.Spec{GPU: gpu, Sched: config.GTO, BOWS: config.FixedBOWS(5000),
			DDOS: config.DefaultDDOS(), Kernel: atm}, atmAsm, "1c15275016f1536f"},
		{"MODULO", exp.Spec{GPU: gpu, Sched: config.GTO, BOWS: config.FixedBOWS(5000),
			DDOS: modulo, Kernel: ht}, htAsm, "ea01c9dd57c8528d"},
		{"WASP+BOWS", exp.Spec{GPU: gpu, Sched: config.WASP, BOWS: config.DefaultBOWS(),
			DDOS: config.DefaultDDOS(), WaSP: config.DefaultWaSP(), Kernel: ht}, htAsm, "2c636f1edea0889b"},
		{"TAGE", exp.Spec{GPU: gpu, Sched: config.GTO, BOWS: config.DefaultBOWS(),
			DDOS: config.DefaultDDOS(), Detector: config.DetectTAGE, TAGE: config.DefaultTAGE(),
			Kernel: ht}, htAsm, "0780719611933262"},
		{"inline", resolve(inlineReq(300)), inlineAsm, "5ca20cffb274f8a4"},
		{"resolved", resolve(&JobRequest{Kernel: "HT", Config: JobConfig{GPU: "pascal", SMs: 2,
			Quick: true, Sched: "lrr", BOWS: "static", Delay: &delay, Hash: "modulo",
			MaxCycles: 2_000_000}}), htAsm, "739f83d6c1aecc48"},
	} {
		if got := exp.VariantHash(tc.spec); got != tc.variant {
			t.Errorf("%s: VariantHash = %s, want %s", tc.name, got, tc.variant)
		}
		want := fmt.Sprintf("%s-%s-v%d", tc.asm, tc.variant, sim.Version)
		if got := CacheKey(tc.spec); got != want {
			t.Errorf("%s: CacheKey = %s, want %s", tc.name, got, want)
		}
	}
}

package server

import (
	"errors"
	"fmt"
	"reflect"

	"warpsched/internal/config"
	"warpsched/internal/exp"
	"warpsched/internal/kernels"
)

// This file, and config.{GPU,BOWS,DDOS}Name under it, has no caller in this
// module: bench/probes_host.go times SpecRequest (server.spec_request_us).
// It goes with that probe in the benchmark PR of ROADMAP (2b).

// ErrNotMappable marks a spec the wire format cannot express: kernels
// with host-side closures outside the registered suites, non-default
// BOWS/DDOS parameterizations, the scheduler zoo's dimensions (WASP
// scheduling, TAGE detection), machines that are not a (scaled)
// GTX480/GTX1080Ti, or budgets above the default server ceiling.
var ErrNotMappable = errors.New("spec cannot be expressed as a job request")

// SpecRequest inverts Options.Resolve: it maps an exp.Spec back to the
// wire request whose admission resolves to the same content address.
// The mapping is proven, not assumed — the built request is resolved
// with the default server options and its CacheKey compared against the
// (budget-normalized) spec's; any mismatch — including every Spec field
// the wire has no word for, since the key covers them all — returns
// ErrNotMappable rather than silently fetching the wrong result.
// Deterministic simulation then gives the full guarantee: a daemon result
// for the returned request is byte-for-byte the run the spec describes.
func SpecRequest(spec exp.Spec) (*JobRequest, error) {
	if spec.Kernel == nil || spec.Kernel.Launch.Prog == nil {
		return nil, fmt.Errorf("%w: spec has no kernel", ErrNotMappable)
	}
	norm := spec.Normalized()
	req := &JobRequest{Wait: true}

	if quick, ok := registeredVariant(norm.Kernel); ok {
		req.Kernel = norm.Kernel.Name
		req.Config.Quick = quick
	} else if l := norm.Kernel.Launch; l.Setup == nil && norm.Kernel.Verify == nil {
		// Inline route: only sound when the kernel carries no host-side
		// closures — Setup initializes memory the daemon cannot reproduce
		// and Verify checks outputs the daemon would skip. AllowUnsafe
		// mirrors local-sweep semantics: a sweep runs its programs without
		// the admission race gate, so the daemon must too.
		req.Source = l.Prog.Assembly()
		req.Name = norm.Kernel.Name
		req.GridCTAs, req.CTAThreads = l.GridCTAs, l.CTAThreads
		req.MemWords = l.MemWords
		req.Params = append([]uint32(nil), l.Params...)
		req.AllowUnsafe = true
	} else {
		return nil, fmt.Errorf("%w: kernel %q carries host-side Setup/Verify closures and is not in the registered suites",
			ErrNotMappable, norm.Kernel.Name)
	}

	gpu, sms, ok := config.GPUName(norm.GPU)
	if !ok {
		return nil, fmt.Errorf("%w: machine %q is not a (scaled) GTX480 or GTX1080Ti", ErrNotMappable, norm.GPU.Name)
	}
	req.Config.GPU, req.Config.SMs = gpu, sms
	req.Config.Sched = string(norm.Sched)

	mode, delay, ok := config.BOWSName(norm.BOWS)
	if !ok {
		return nil, fmt.Errorf("%w: non-default BOWS parameterization", ErrNotMappable)
	}
	req.Config.BOWS, req.Config.Delay = mode, delay

	hash, ok := config.DDOSName(norm.DDOS)
	if !ok {
		return nil, fmt.Errorf("%w: non-default DDOS parameterization", ErrNotMappable)
	}
	req.Config.Hash = hash
	req.Config.MaxCycles = norm.MaxCycles

	resolved, rerr := Options{}.Resolve(req)
	if rerr != nil {
		return nil, fmt.Errorf("%w: built request does not resolve: %v", ErrNotMappable, rerr)
	}
	if got, want := CacheKey(resolved), CacheKey(norm); got != want {
		return nil, fmt.Errorf("%w: lossy mapping for kernel %q (request key %s, spec key %s)",
			ErrNotMappable, norm.Kernel.Name, got, want)
	}
	return req, nil
}

// registeredVariant reports whether the kernel is byte-identical to a
// registered suite entry (program, geometry and parameters all equal) —
// the condition under which naming it on the wire reproduces the run,
// host-side closures included.
func registeredVariant(k *kernels.Kernel) (quick, ok bool) {
	match := func(c *kernels.Kernel) bool {
		return c.Name == k.Name &&
			c.Launch.GridCTAs == k.Launch.GridCTAs &&
			c.Launch.CTAThreads == k.Launch.CTAThreads &&
			c.Launch.MemWords == k.Launch.MemWords &&
			reflect.DeepEqual(c.Launch.Params, k.Launch.Params) &&
			c.Launch.Prog.Assembly() == k.Launch.Prog.Assembly()
	}
	for _, c := range fullSuite() {
		if match(c) {
			return false, true
		}
	}
	for _, c := range quickSuite() {
		if match(c) {
			return true, true
		}
	}
	return false, false
}

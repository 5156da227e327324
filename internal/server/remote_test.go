package server

import (
	"errors"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/exp"
	"warpsched/internal/kernels"
)

// bowsOff mirrors the harness's BOWS-disabled configuration.
func bowsOff() config.BOWS { return config.BOWS{Mode: config.BOWSOff} }

// TestSpecRequestRegistered: a sweep spec over a registered kernel maps
// back to the kernel-by-name wire route, with quick/full, machine scale,
// scheduler, BOWS mode and the clamped budget all recovered.
func TestSpecRequestRegistered(t *testing.T) {
	quick := kernels.QuickSyncSuite()[0]
	spec := exp.Spec{GPU: config.GTX480().Scaled(2), Sched: config.GTO,
		BOWS: bowsOff(), DDOS: config.DefaultDDOS(), Kernel: quick}
	req, err := SpecRequest(spec)
	if err != nil {
		t.Fatalf("SpecRequest: %v", err)
	}
	if req.Kernel != quick.Name || req.Source != "" || !req.Config.Quick {
		t.Errorf("kernel route: %+v", req)
	}
	if req.Config.GPU != "fermi" || req.Config.SMs != 2 {
		t.Errorf("machine: gpu=%q sms=%d", req.Config.GPU, req.Config.SMs)
	}
	if req.Config.Sched != "GTO" || req.Config.BOWS != "off" || req.Config.Delay != nil {
		t.Errorf("policies: %+v", req.Config)
	}
	// GTX480's 200M default clamps to the experiment budget, which the
	// server re-admits as the job ceiling.
	if req.Config.MaxCycles != 10_000_000 {
		t.Errorf("MaxCycles = %d, want the 10M experiment clamp", req.Config.MaxCycles)
	}

	full := kernels.SyncSuite()[0]
	spec.Kernel = full
	req, err = SpecRequest(spec)
	if err != nil {
		t.Fatalf("SpecRequest full-size: %v", err)
	}
	if req.Kernel != full.Name || req.Config.Quick {
		t.Errorf("full-size kernel mapped to quick: %+v", req)
	}

	// The paper's adaptive BOWS and a fixed-delay variant.
	spec.BOWS = config.DefaultBOWS()
	req, err = SpecRequest(spec)
	if err != nil {
		t.Fatalf("SpecRequest adaptive BOWS: %v", err)
	}
	if req.Config.BOWS != "ddos" || req.Config.Delay != nil {
		t.Errorf("adaptive BOWS: %+v", req.Config)
	}
	spec.BOWS = config.FixedBOWS(500)
	req, err = SpecRequest(spec)
	if err != nil {
		t.Fatalf("SpecRequest fixed BOWS: %v", err)
	}
	if req.Config.BOWS != "ddos" || req.Config.Delay == nil || *req.Config.Delay != 500 {
		t.Errorf("fixed BOWS: %+v", req.Config)
	}
}

// TestSpecRequestInlineRoundTrip: a spec resolved from an inline request
// maps back to an inline request with the same content address.
func TestSpecRequestInlineRoundTrip(t *testing.T) {
	orig := inlineReq(fastIters)
	spec, rerr := Options{}.Resolve(orig)
	if rerr != nil {
		t.Fatalf("Resolve: %v", rerr)
	}
	req, err := SpecRequest(spec)
	if err != nil {
		t.Fatalf("SpecRequest: %v", err)
	}
	if req.Source == "" || req.Kernel != "" {
		t.Fatalf("inline spec did not map to the inline route: %+v", req)
	}
	spec2, rerr := Options{}.Resolve(req)
	if rerr != nil {
		t.Fatalf("re-resolve: %v", rerr)
	}
	if CacheKey(spec2) != CacheKey(spec) {
		t.Errorf("round-trip key %s != %s", CacheKey(spec2), CacheKey(spec))
	}
}

// TestSpecRequestNotMappable: specs the wire cannot express — modified
// registered kernels with host closures, non-default BOWS/DDOS
// parameterizations, hand-edited machines, WASP scheduling, TAGE
// detection — all fail with ErrNotMappable instead of mapping to the
// wrong result.
func TestSpecRequestNotMappable(t *testing.T) {
	base := func() exp.Spec {
		return exp.Spec{GPU: config.GTX480().Scaled(2), Sched: config.GTO,
			BOWS: bowsOff(), DDOS: config.DefaultDDOS(),
			Kernel: kernels.QuickSyncSuite()[0]}
	}

	// A registered kernel with altered launch parameters is no longer the
	// suite entry, and its Setup/Verify closures cannot go on the wire.
	spec := base()
	clone := *spec.Kernel
	clone.Launch.Params = append(append([]uint32(nil), clone.Launch.Params...), 12345)
	spec.Kernel = &clone
	if clone.Launch.Setup == nil && clone.Verify == nil {
		t.Skip("suite kernel has no host-side closures; inline route would legitimately map it")
	}
	if _, err := SpecRequest(spec); !errors.Is(err, ErrNotMappable) {
		t.Errorf("altered kernel: err = %v, want ErrNotMappable", err)
	}

	spec = base()
	spec.BOWS = config.DefaultBOWS()
	spec.BOWS.WindowCycles++
	if _, err := SpecRequest(spec); !errors.Is(err, ErrNotMappable) {
		t.Errorf("non-default BOWS: err = %v, want ErrNotMappable", err)
	}

	spec = base()
	spec.DDOS.PathBits++
	if _, err := SpecRequest(spec); !errors.Is(err, ErrNotMappable) {
		t.Errorf("non-default DDOS: err = %v, want ErrNotMappable", err)
	}

	spec = base()
	spec.GPU.WarpsPerSM++
	if _, err := SpecRequest(spec); !errors.Is(err, ErrNotMappable) {
		t.Errorf("hand-edited machine: err = %v, want ErrNotMappable", err)
	}

	// The scheduler zoo: the wire has no word for WaSP knobs or a detector
	// selection, so the round trip must refuse both rather than let a
	// daemon simulate the default machine in their place.
	spec = base()
	spec.Sched, spec.WaSP = config.WASP, config.DefaultWaSP()
	if _, err := SpecRequest(spec); !errors.Is(err, ErrNotMappable) {
		t.Errorf("WASP spec: err = %v, want ErrNotMappable", err)
	}

	spec = base()
	spec.BOWS = config.DefaultBOWS()
	spec.Detector, spec.TAGE = config.DetectTAGE, config.DefaultTAGE()
	if _, err := SpecRequest(spec); !errors.Is(err, ErrNotMappable) {
		t.Errorf("TAGE spec: err = %v, want ErrNotMappable", err)
	}
}

package config

import (
	"errors"
	"fmt"
	"strings"
)

// The name↔configuration vocabulary shared by every front end: cmd/warpsim
// flags and warpsimd's JobConfig wire fields (internal/server resolves them
// here). Names are case-insensitive and the empty name selects the
// documented default. An unknown name is an error listing the valid ones;
// warpsim reports it as a usage error, warpsimd as a 400. The *Name
// inverses serve only internal/server.SpecRequest, which only the
// benchmark calls (see internal/server/remote.go).

// machines are the Table II configurations by wire name and model alias.
var machines = []struct {
	name, alias string
	gpu         func() GPU
}{
	{"fermi", "gtx480", GTX480},
	{"pascal", "gtx1080ti", GTX1080Ti},
}

var (
	bowsModes = []BOWSMode{BOWSOff, BOWSDDOS, BOWSStatic}
	hashes    = []HashKind{HashXOR, HashModulo}
)

// lookup finds name among valid, ignoring case; the empty name selects def.
func lookup[T ~string](what, name string, def T, valid []T) (T, error) {
	if name == "" {
		return def, nil
	}
	for _, v := range valid {
		if strings.EqualFold(name, string(v)) {
			return v, nil
		}
	}
	return "", fmt.Errorf("unknown %s %q (valid: %v)", what, name, valid)
}

// ParseGPU resolves a machine name ("fermi", the default, or "pascal";
// the model names "gtx480" and "gtx1080ti" are aliases), scaled down to
// sms SMs when sms is positive (GPU.Scaled).
func ParseGPU(name string, sms int) (GPU, error) {
	if sms < 0 {
		return GPU{}, errors.New("sms must be non-negative")
	}
	var valid []string
	for _, m := range machines {
		if name == "" || strings.EqualFold(name, m.name) || strings.EqualFold(name, m.alias) {
			return m.gpu().Scaled(sms), nil
		}
		valid = append(valid, m.name)
	}
	return GPU{}, fmt.Errorf("unknown gpu %q (valid: %v)", name, valid)
}

// GPUName inverts ParseGPU: the machine name and SM override that
// resolve to g, ignoring the watchdog budget (front ends carry MaxCycles
// separately). ok is false when g is not a (scaled) Table II machine.
func GPUName(g GPU) (name string, sms int, ok bool) {
	for _, m := range machines {
		cand, n := m.gpu(), 0
		if g.NumSMs != cand.NumSMs {
			n = g.NumSMs
			cand = cand.Scaled(n)
		}
		cand.MaxCycles = g.MaxCycles
		if cand == g {
			return m.name, n, true
		}
	}
	return "", 0, false
}

// ParseScheduler resolves a scheduler kind from AllSchedulers (default GTO).
func ParseScheduler(name string) (SchedulerKind, error) {
	return lookup("scheduler", name, GTO, AllSchedulers)
}

// ParseDetector resolves a spin-detector kind from Detectors (default DDOS).
func ParseDetector(name string) (DetectorKind, error) {
	return lookup("detector", name, DetectDDOS, Detectors)
}

// ParseBOWS resolves a BOWS mode ("off", the default, "ddos" or "static")
// plus an optional fixed delay limit: nil keeps the paper's adaptive
// controller (DefaultBOWS), a value fixes the limit (FixedBOWS). The delay
// is ignored when the mode is off.
func ParseBOWS(mode string, delay *int64) (BOWS, error) {
	m, err := lookup("bows mode", mode, BOWSOff, bowsModes)
	switch {
	case err != nil:
		return BOWS{}, err
	case m == BOWSOff:
		return BOWS{Mode: BOWSOff}, nil
	case delay == nil:
		b := DefaultBOWS()
		b.Mode = m
		return b, nil
	case *delay < 0:
		return BOWS{}, errors.New("delay must be non-negative")
	}
	b := FixedBOWS(*delay)
	b.Mode = m
	return b, nil
}

// BOWSName inverts ParseBOWS. ok is false for a parameterization the
// mode+delay vocabulary cannot express.
func BOWSName(b BOWS) (mode string, delay *int64, ok bool) {
	mode = string(b.Mode)
	if cand, err := ParseBOWS(mode, nil); err == nil && cand == b {
		return mode, nil, true
	}
	if cand, err := ParseBOWS(mode, &b.DelayLimit); err == nil && cand == b {
		return mode, &b.DelayLimit, true
	}
	return "", nil, false
}

// ParseDDOS resolves the DDOS hashing function ("XOR", the default, or
// "MODULO") onto the paper's detector configuration — the one DDOS
// dimension the front ends expose.
func ParseDDOS(hash string) (DDOS, error) {
	d := DefaultDDOS()
	var err error
	d.Hash, err = lookup("ddos hash", hash, HashXOR, hashes)
	return d, err
}

// DDOSName inverts ParseDDOS. ok is false when d differs from the default
// configuration in anything but the hash.
func DDOSName(d DDOS) (hash string, ok bool) {
	cand, err := ParseDDOS(string(d.Hash))
	return string(d.Hash), err == nil && cand == d
}

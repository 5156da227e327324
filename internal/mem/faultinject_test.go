package mem

import "testing"

// TestInjectorDeterminism: the same seed yields the same decision and
// delay stream — the property that keeps fault-injected simulations
// reproducible.
func TestInjectorDeterminism(t *testing.T) {
	mk := func(seed uint64) []int64 {
		fi := &faultInjector{cfg: DefaultFaults(seed)}
		fi.rng = fi.cfg.Seed
		var out []int64
		for i := 0; i < 1000; i++ {
			out = append(out, fi.delay())
			if fi.forceAtomRetry() {
				out = append(out, -1)
			}
		}
		return out
	}
	a, b := mk(42), mk(42)
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := mk(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

// TestInjectorRates sanity-checks that injected event frequencies track
// the configured probabilities (loose bounds; the generator is uniform).
func TestInjectorRates(t *testing.T) {
	cfg := DefaultFaults(7)
	fi := &faultInjector{cfg: cfg}
	fi.rng = cfg.Seed
	const n = 100_000
	var spikes int
	for i := 0; i < n; i++ {
		if fi.delay() > 0 {
			spikes++
		}
	}
	// LatencyProb + ReorderProb = 0.06 of draws should perturb latency.
	frac := float64(spikes) / n
	if frac < 0.03 || frac > 0.12 {
		t.Errorf("latency perturbation rate %.4f far from configured 0.06", frac)
	}
}

// TestScaleAndEnabled covers the FaultConfig helpers.
func TestScaleAndEnabled(t *testing.T) {
	var zero FaultConfig
	if zero.enabled() {
		t.Error("zero config reports enabled")
	}
	cfg := DefaultFaults(1)
	if !cfg.enabled() {
		t.Error("default config reports disabled")
	}
	doubled := cfg.Scale(2)
	if doubled.LatencyProb != 2*cfg.LatencyProb || doubled.AtomRetryProb != 2*cfg.AtomRetryProb {
		t.Errorf("Scale(2) did not double probabilities: %+v", doubled)
	}
	if doubled.Seed != cfg.Seed {
		t.Error("Scale changed the seed")
	}
}

// TestInjectFaultsWiring: injecting into a System is a no-op for a
// disabled config, and an enabled one widens the completion wheel by its
// worst delay.
func TestInjectFaultsWiring(t *testing.T) {
	s := NewSystem(testMemCfg(), 1, 4, 256)
	s.InjectFaults(FaultConfig{}) // disabled: must stay nil
	if s.inj != nil {
		t.Error("disabled fault config installed an injector")
	}
	if got := len(s.events.slots); got != 64 {
		t.Errorf("wheel of %d slots for a 50-cycle horizon, want 64", got)
	}
	s.InjectFaults(DefaultFaults(9))
	if s.inj == nil {
		t.Fatal("enabled fault config did not install an injector")
	}
	if got := len(s.events.slots); got != 256 {
		t.Errorf("wheel of %d slots for a 50+200+3-cycle horizon, want 256", got)
	}
}

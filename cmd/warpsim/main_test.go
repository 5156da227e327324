package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/exp"
	"warpsched/internal/kernels"
	"warpsched/internal/metrics"
	"warpsched/internal/report"
)

// bin is the warpsim binary under test, built once in TestMain.
var bin string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "warpsim-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if bin, err = build(tmp, "warpsim"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// build compiles one of the repo's commands into dir.
func build(dir, tool string) (string, error) {
	path := filepath.Join(dir, tool)
	if out, err := exec.Command("go", "build", "-o", path, "warpsched/cmd/"+tool).CombinedOutput(); err != nil {
		return "", fmt.Errorf("build %s: %v\n%s", tool, err, out)
	}
	return path, nil
}

// TestManifestIdentityMatchesHarness: the record warpsim -stats-json
// writes carries the same variant hash and descriptors as internal/exp
// gives the same configuration, so a warpsim run joins experiment and
// warpsimd manifests on one identity.
func TestManifestIdentityMatchesHarness(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	out, err := exec.Command(bin, "-kernel", "VECADD", "-sms", "2", "-sched", "cawa",
		"-bows", "ddos", "-delay", "500", "-hash", "modulo", "-stats-json", path).CombinedOutput()
	if err != nil {
		t.Fatalf("warpsim: %v\n%s", err, out)
	}
	m, err := metrics.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 1 {
		t.Fatalf("manifest has %d runs, want 1", len(m.Runs))
	}

	k, err := kernels.ByName("VECADD")
	if err != nil {
		t.Fatal(err)
	}
	ddos := config.DefaultDDOS()
	ddos.Hash = config.HashModulo
	spec := exp.Spec{GPU: config.GTX480().Scaled(2), Sched: config.CAWA,
		BOWS: config.FixedBOWS(500), DDOS: ddos, Kernel: k}
	got, want := m.Runs[0], exp.Record(spec, exp.Outcome{})
	if got.Variant != want.Variant {
		t.Errorf("variant = %s, want exp.VariantHash = %s", got.Variant, want.Variant)
	}
	if got.BOWS != want.BOWS || got.DDOS != want.DDOS || got.GPU != want.GPU || got.Sched != want.Sched {
		t.Errorf("identity columns = %s|%s|%s|%s, want %s|%s|%s|%s",
			got.GPU, got.Sched, got.BOWS, got.DDOS, want.GPU, want.Sched, want.BOWS, want.DDOS)
	}
}

// TestFaultedManifestIsNotACleanRun: a -fault-seed run's manifest carries
// the seed in its config, so joining it with the clean run's manifest is
// refused as a different configuration, not reported as a determinism
// conflict between two results of one run.
func TestFaultedManifestIsNotACleanRun(t *testing.T) {
	dir := t.TempDir()
	manifest := func(name string, extra ...string) *metrics.Manifest {
		path := filepath.Join(dir, name)
		args := append([]string{"-kernel", "ATM", "-sms", "2", "-bows", "ddos", "-stats-json", path}, extra...)
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("warpsim %v: %v\n%s", extra, err, out)
		}
		m, err := metrics.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	clean, faulted := manifest("clean.json"), manifest("faulted.json", "-fault-seed", "7")
	if clean.ConfigHash == faulted.ConfigHash {
		t.Fatalf("faulted and clean manifests share config hash %s", clean.ConfigHash)
	}
	if _, ok := clean.Config["fault_seed"]; ok {
		t.Errorf("clean manifest config names a fault seed: %v", clean.Config)
	}
	_, err := report.Join(clean, faulted)
	var je *report.JoinError
	if !errors.As(err, &je) || je.Reason != report.ReasonConfig {
		t.Fatalf("Join(clean, faulted) = %v, want JoinError{ReasonConfig}", err)
	}
}

// TestUnknownNamesAreUsageErrors: every name-valued flag rejects an
// unknown value with the list of valid ones and exit code 2.
func TestUnknownNamesAreUsageErrors(t *testing.T) {
	for flag, valid := range map[string]string{
		"-gpu":      "[fermi pascal]",
		"-sched":    "[LRR GTO CAWA WASP]",
		"-detector": "[DDOS TAGE]",
		"-bows":     "[off ddos static]",
		"-hash":     "[XOR MODULO]",
	} {
		out, err := exec.Command(bin, "-kernel", "VECADD", flag, "bogus").CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%s bogus: err = %v, want exit code 2", flag, err)
		}
		if !strings.Contains(string(out), `"bogus" (valid: `+valid+")") {
			t.Errorf("%s bogus: output does not list the valid names:\n%s", flag, out)
		}
	}
}

// TestRemovedFlagsAreUsageErrors: the execution-strategy flags that could
// not change a result and never won a measurement (and -remote, which
// lost its) are gone from all three tools, not silently accepted.
func TestRemovedFlagsAreUsageErrors(t *testing.T) {
	bins, dir := map[string]string{"warpsim": bin}, t.TempDir()
	for _, tool := range []string{"experiments", "warpsimd"} {
		path, err := build(dir, tool)
		if err != nil {
			t.Fatal(err)
		}
		bins[tool] = path
	}
	for _, c := range []struct{ tool, flag string }{
		{"warpsim", "-shards"},
		{"experiments", "-shards"},
		{"experiments", "-retries"},
		{"experiments", "-remote"},
		{"warpsimd", "-shards"},
		{"warpsimd", "-retries"},
		{"warpsimd", "-no-ff"},
	} {
		out, err := exec.Command(bins[c.tool], c.flag, "1").CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%s %s: err = %v, want exit code 2", c.tool, c.flag, err)
		}
		if !strings.Contains(string(out), "flag provided but not defined: "+c.flag) {
			t.Errorf("%s %s: output does not name the undefined flag:\n%s", c.tool, c.flag, out)
		}
	}
}

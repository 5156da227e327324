package exp

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"warpsched/internal/kernels"
)

// panicKernel returns a healthy launch whose Verify closure panics —
// standing in for any bug that escapes the engine's own recovery.
func panicKernel() *kernels.Kernel {
	k := kernels.NewHashTable(kernels.HashTableConfig{
		Items: 256, Buckets: 16, CTAs: 2, CTAThreads: 64,
	})
	k.Verify = func([]uint32) error { panic("synthetic verifier bug") }
	return k
}

// TestRunnerPanicRecovered: a panicking run becomes a *PanicError record
// carrying the panic value and stack; sibling specs complete untouched.
func TestRunnerPanicRecovered(t *testing.T) {
	specs := []Spec{testSpec(64), testSpec(64), testSpec(64)}
	specs[1].Kernel = panicKernel()
	outs := Cfg{Jobs: 3}.Execute(specs)
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Errorf("healthy specs errored: %v / %v", outs[0].Err, outs[2].Err)
	}
	var pe *PanicError
	if !errors.As(outs[1].Err, &pe) {
		t.Fatalf("expected *PanicError, got %v", outs[1].Err)
	}
	if pe.Value != "synthetic verifier bug" || pe.Kernel == "" {
		t.Errorf("panic record incomplete: %+v", pe)
	}
	if !strings.Contains(pe.Error(), "goroutine") {
		t.Error("panic record carries no stack trace")
	}
	if strings.Contains(pe.Brief(), "goroutine") {
		t.Error("Brief should omit the stack")
	}
}

// TestRunnerMissingParamIsPlainError: a launch that supplies fewer
// parameters than its program reads (what a warpsimd inline job with a
// short "params" list amounts to) is rejected by sim.New as a configuration
// error; it used to panic inside Run and come back as a *PanicError with a
// stack.
func TestRunnerMissingParamIsPlainError(t *testing.T) {
	sp := testSpec(64)
	sp.Kernel.Launch.Params = sp.Kernel.Launch.Params[:1]
	o := Cfg{Jobs: 1}.Execute([]Spec{sp})[0]
	if o.Err == nil || !strings.Contains(o.Err.Error(), "ld.param") {
		t.Fatalf("short parameter list: err = %v, want an ld.param range error", o.Err)
	}
	var pe *PanicError
	if errors.As(o.Err, &pe) {
		t.Errorf("configuration error surfaced as a panic: %v", pe.Brief())
	}
}

// TestRunnerPanicRunsOnce: a panicking spec executes exactly once and
// its record carries the *PanicError's message with its stack, which is
// what the journal records; a launch sim.New rejects never reaches the
// verifier.
func TestRunnerPanicRunsOnce(t *testing.T) {
	attempts := 0
	sp := testSpec(64)
	k := panicKernel()
	k.Verify = func([]uint32) error { attempts++; panic(attempts) }
	sp.Kernel = k
	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rec := Cfg{Journal: j}.runOne(&sp, 0, 1, nil)
	if attempts != 1 {
		t.Errorf("panicking spec ran %d times, want 1", attempts)
	}
	if !strings.HasPrefix(rec.Err, "panic during "+sp.Kernel.Name+"/GTO: 1\n") || !strings.Contains(rec.Err, "goroutine") {
		t.Errorf("panic record incomplete: %q", rec.Err)
	}
	if replay, ok := j.lookup(ContentKey(sp)); !ok || replay.Err != rec.Err {
		t.Errorf("journal holds %q (found=%v), want the panic's message verbatim", replay.Err, ok)
	}

	// A rejected launch is a plain error, not a panic.
	calls := 0
	bad := testSpec(64)
	badK := kernels.NewHashTable(kernels.HashTableConfig{
		Items: 64, Buckets: 16, CTAs: 1, CTAThreads: 64,
	})
	badK.Launch.GridCTAs = 0
	badK.Verify = func([]uint32) error { calls++; return nil }
	bad.Kernel = badK
	rec = Cfg{}.runOne(&bad, 0, 1, nil)
	if rec.Err == "" {
		t.Fatal("sabotaged launch succeeded")
	}
	if strings.HasPrefix(rec.Err, "panic") {
		t.Errorf("deterministic failure surfaced as a panic: %v", rec.Err)
	}
	if calls != 0 {
		t.Errorf("verifier ran %d times on a rejected launch", calls)
	}
}

package exp

import (
	"path/filepath"
	"testing"

	"warpsched/internal/sim"
	"warpsched/internal/stats"
)

// TestRunnerRemoteServes: a Remote hook that serves the run replaces the
// engine, and the served outcome is never journaled (a resume journal
// must hold only full-fidelity local records).
func TestRunnerRemoteServes(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	sp := testSpec(64)
	fake := &sim.Result{Stats: stats.Sim{Cycles: 42}}
	var got Spec
	c := Cfg{Journal: j, Remote: func(s Spec) (Outcome, bool) {
		got = s
		return Outcome{Res: fake}, true
	}}
	out := c.runAll([]Spec{sp})
	if out[0].Err != nil || out[0].Res != fake {
		t.Fatalf("remote outcome not used: %+v", out[0])
	}
	if got.Kernel != sp.Kernel || got.Sched != sp.Sched {
		t.Errorf("remote hook saw wrong spec: %+v", got)
	}
	if j.Len() != 0 {
		t.Errorf("remote outcome was journaled (%d records)", j.Len())
	}
}

// TestRunnerRemoteFallback: a Remote hook declining the run (unmappable
// spec, daemon outage) falls through to the local engine.
func TestRunnerRemoteFallback(t *testing.T) {
	calls := 0
	c := Cfg{Remote: func(Spec) (Outcome, bool) {
		calls++
		return Outcome{}, false
	}}
	out := c.runAll([]Spec{testSpec(64)})
	if calls != 1 {
		t.Errorf("remote hook consulted %d times, want 1", calls)
	}
	if out[0].Err != nil || out[0].Res == nil || out[0].Res.Stats.Cycles == 0 {
		t.Errorf("local fallback did not run: %+v", out[0])
	}
}

// TestRunnerRemoteSkippedForTracer: tracer runs reach inside the engine
// and must never be offloaded.
func TestRunnerRemoteSkippedForTracer(t *testing.T) {
	c := Cfg{
		Tracer: func(int) sim.Tracer { return nil },
		Remote: func(Spec) (Outcome, bool) {
			t.Error("remote hook consulted for a tracer run")
			return Outcome{}, false
		},
	}
	out := c.runAll([]Spec{testSpec(64)})
	if out[0].Err != nil || out[0].Res == nil {
		t.Errorf("tracer run failed: %+v", out[0])
	}
}

// TestRemoteSafeRegistry: the remote-unsafe set names real experiments
// and everything else is offloadable.
func TestRemoteSafeRegistry(t *testing.T) {
	byName := map[string]bool{}
	for _, e := range All() {
		byName[e.Name] = true
	}
	for name := range remoteUnsafe {
		if !byName[name] {
			t.Errorf("remoteUnsafe names unknown experiment %q", name)
		}
	}
	for _, e := range All() {
		want := !remoteUnsafe[e.Name]
		if e.RemoteSafe() != want {
			t.Errorf("%s.RemoteSafe() = %v, want %v", e.Name, e.RemoteSafe(), want)
		}
	}
}

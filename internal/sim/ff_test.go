package sim

import (
	"errors"
	"reflect"
	"testing"

	"warpsched/internal/config"
)

// hangUnder runs launch under opt and returns the *HangError it must
// produce. The fast-forward clock interacts with the hang monitor in the
// worst possible place — a hung machine is exactly the all-stalled state
// the clock skips over — so these tests require the diagnosis, not just
// the failure, to be identical with and without fast-forward.
func hangUnder(t *testing.T, opt Options, l Launch) *HangError {
	t.Helper()
	eng, err := New(opt, l)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run()
	var he *HangError
	if !errors.As(err, &he) {
		t.Fatalf("expected *HangError, got %v", err)
	}
	return he
}

// TestHangReportFastForwardExact locks word 0 before launch so every warp
// livelocks on the acquire loop (and, under queue locks, deadlocks parked
// on a release that never comes), then requires the classified report —
// class, detection cycle, per-warp stuck ranking, SIB-PT snapshot, memory
// in-flight summary — to be bit-identical with and without fast-forward.
func TestHangReportFastForwardExact(t *testing.T) {
	cases := []struct {
		name   string
		launch func(t *testing.T) Launch
		queue  bool
	}{
		{"seeded-livelock", func(t *testing.T) Launch {
			return Launch{
				Prog: livelockProg(t), GridCTAs: 1, CTAThreads: 64, MemWords: 64,
				Setup: func(words []uint32) { words[0] = 1 },
			}
		}, false},
		{"deadlock", func(t *testing.T) Launch {
			return Launch{Prog: deadlockProg(t), GridCTAs: 2, CTAThreads: 64, MemWords: 64}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := hangOptions(config.GTO)
			opt.GPU.Mem.QueueLocks = tc.queue
			opt.NoFastForward = true
			slow := hangUnder(t, opt, tc.launch(t))
			opt.NoFastForward = false
			fast := hangUnder(t, opt, tc.launch(t))
			if slow.Watchdog != fast.Watchdog {
				t.Fatalf("watchdog flag diverged: per-cycle %v, fast-forward %v", slow.Watchdog, fast.Watchdog)
			}
			if !reflect.DeepEqual(slow.Report, fast.Report) {
				t.Errorf("hang report diverged under fast-forward:\nper-cycle:    %+v\nfast-forward: %+v",
					slow.Report, fast.Report)
			}
			if slow.Error() != fast.Error() {
				t.Errorf("hang error text diverged:\nper-cycle:    %s\nfast-forward: %s", slow, fast)
			}
		})
	}
}

// TestWatchdogFastForwardExact exercises the passive path: no Check,
// so the run must burn its entire MaxCycles budget. Fast-forward covers
// that budget in a handful of jumps, but the abort cycle and the sampled
// report must match the per-cycle run exactly.
func TestWatchdogFastForwardExact(t *testing.T) {
	opt := testOptions(config.GTO)
	opt.GPU.MaxCycles = 500_000
	opt.GPU.Mem.QueueLocks = true
	l := Launch{Prog: deadlockProg(t), GridCTAs: 2, CTAThreads: 64, MemWords: 64}

	opt.NoFastForward = true
	slow := hangUnder(t, opt, l)
	opt.NoFastForward = false
	fast := hangUnder(t, opt, l)
	if !slow.Watchdog || !fast.Watchdog {
		t.Fatalf("expected watchdog aborts, got per-cycle %v, fast-forward %v", slow.Watchdog, fast.Watchdog)
	}
	if slow.MaxCycles != fast.MaxCycles {
		t.Errorf("abort budget diverged: %d vs %d", slow.MaxCycles, fast.MaxCycles)
	}
	if !reflect.DeepEqual(slow.Report, fast.Report) {
		t.Errorf("watchdog report diverged under fast-forward:\nper-cycle:    %+v\nfast-forward: %+v",
			slow.Report, fast.Report)
	}
}

// Determinism suite for the event-driven clock: it is a pure performance
// lever, so every observable — cycle counts, per-SM statistics, DDOS
// detection quality, the final memory image, the metrics snapshot — must
// be bit-identical to the per-cycle run.
// The file lives in package sim_test so it can drive the real benchmark
// kernels (package kernels imports sim).
package sim_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/isa"
	"warpsched/internal/kernels"
	"warpsched/internal/mem"
	"warpsched/internal/sim"
)

func detOptions(sms int, kind config.SchedulerKind, bows bool) sim.Options {
	g := config.GTX480().Scaled(sms)
	g.MaxCycles = 10_000_000
	opt := sim.Options{GPU: g, Sched: kind, DDOS: config.DefaultDDOS()}
	if bows {
		opt.BOWS = config.DefaultBOWS()
	} else {
		opt.BOWS = config.BOWS{Mode: config.BOWSOff}
	}
	return opt
}

func runKernel(t *testing.T, k *kernels.Kernel, opt sim.Options) *sim.Result {
	t.Helper()
	eng, err := sim.New(opt, k.Launch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("%s: %v", k.Name, err)
	}
	if err := k.Verify(res.Memory); err != nil {
		t.Fatalf("%s: %v", k.Name, err)
	}
	return res
}

// requireIdentical compares two full results field by field so a
// divergence names what broke rather than dumping two giant structs.
func requireIdentical(t *testing.T, label string, want, got *sim.Result) {
	t.Helper()
	if want.Stats.Cycles != got.Stats.Cycles {
		t.Errorf("%s: cycles %d, want %d", label, got.Stats.Cycles, want.Stats.Cycles)
	}
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Errorf("%s: aggregate stats diverged:\nwant %+v\ngot  %+v", label, want.Stats, got.Stats)
	}
	if !reflect.DeepEqual(want.Detection, got.Detection) {
		t.Errorf("%s: detection metrics diverged", label)
	}
	if !reflect.DeepEqual(want.ConfirmedSIBs, got.ConfirmedSIBs) {
		t.Errorf("%s: SIB state diverged", label)
	}
	if !reflect.DeepEqual(want.FinalDelayLimits, got.FinalDelayLimits) {
		t.Errorf("%s: adaptive delay limits diverged: want %v, got %v",
			label, want.FinalDelayLimits, got.FinalDelayLimits)
	}
	if !reflect.DeepEqual(want.Memory, got.Memory) {
		t.Errorf("%s: final memory image diverged", label)
	}
	if !reflect.DeepEqual(want.Metrics, got.Metrics) {
		t.Errorf("%s: metrics snapshot diverged", label)
	}
}

// TestFastForwardCycleExact runs the quick synchronization suite — the
// kernels whose BOWS back-off windows are exactly what fast-forward
// skips — per-cycle and fast-forwarded, under both schedulers the golden
// gate covers, with BOWS off and on, on two SMs; then three of them and
// the first sync-free kernel on a 4-SM machine under GTO+BOWS, where SMs
// go dormant and wake independently of each other. The last rows are the
// memory system's own clock jumps: a hashtable whose 32 bucket locks share
// one cache line, so the L2 queue spends most cycles holding nothing but
// atomics NACKed by that line's busy period (the run must jump, not merely
// agree); the same storm on a machine whose atomic costs more tokens than
// a cycle refills, where some skipped cycles charge no retry; and both
// contended kernels with the fault injector's forced NACKs and latency
// spikes drawing from its stream.
func TestFastForwardCycleExact(t *testing.T) {
	type row struct {
		k    *kernels.Kernel
		sms  int
		kind config.SchedulerKind
		bows bool
		// tag names and tune, when set, changes the row's machine.
		tag  string
		tune func(*sim.Options)
		// mustJump requires the clock to have jumped over more than a quarter
		// of the run: SM dormancy alone skips a few percent of a storm, the
		// spans in which the whole L2 queue is NACKed are two thirds of it.
		mustJump bool
	}
	var rows []row
	quick := kernels.QuickSyncSuite()
	for _, kind := range []config.SchedulerKind{config.GTO, config.CAWA} {
		for _, bows := range []bool{false, true} {
			for _, k := range quick {
				rows = append(rows, row{k: k, sms: 2, kind: kind, bows: bows})
			}
		}
	}
	rows = append(rows, row{k: kernels.QuickSyncFreeSuite()[0], sms: 4, kind: config.GTO, bows: true})
	for _, k := range quick {
		switch k.Name {
		case "HT", "ATM", "TSP":
			rows = append(rows, row{k: k, sms: 4, kind: config.GTO, bows: true})
		}
	}
	storm := kernels.NewHashTable(kernels.HashTableConfig{Items: 2048, Buckets: 32, CTAs: 16, CTAThreads: 128})
	dearAtomics := func(o *sim.Options) { o.GPU.Mem.AtomCost = int64(o.GPU.Mem.L2Banks) + 2 }
	faults := func(o *sim.Options) { f := mem.DefaultFaults(7).Scale(2); o.Faults = &f }
	for _, bows := range []bool{false, true} {
		rows = append(rows,
			row{k: storm, sms: 2, kind: config.GTO, bows: bows, tag: "one-line", mustJump: true},
			row{k: storm, sms: 2, kind: config.GTO, bows: bows, tag: "one-line/dear-atomics", tune: dearAtomics})
	}
	for _, k := range quick {
		switch k.Name {
		case "HT", "ATM":
			rows = append(rows, row{k: k, sms: 2, kind: config.GTO, bows: true, tag: "faults", tune: faults})
		}
	}
	for _, r := range rows {
		name := fmt.Sprintf("%s/%s/bows=%v", r.k.Name, r.kind, r.bows)
		if r.sms != 2 {
			name += fmt.Sprintf("/sms=%d", r.sms)
		}
		if r.tag != "" {
			name += "/" + r.tag
		}
		t.Run(name, func(t *testing.T) {
			opt := detOptions(r.sms, r.kind, r.bows)
			if r.tune != nil {
				r.tune(&opt)
			}
			opt.NoFastForward = true
			want := runKernel(t, r.k, opt)
			opt.NoFastForward = false
			got := runKernel(t, r.k, opt)
			requireIdentical(t, name, want, got)
			if r.mustJump && 4*got.FFSkippedCycles <= got.Stats.Cycles {
				t.Errorf("%s: the clock skipped %d of %d cycles: it no longer jumps over all-NACK spans",
					name, got.FFSkippedCycles, got.Stats.Cycles)
			}
		})
	}
}

// twoLockSrc takes two CAS spin locks in sequence, each guarding its own
// counter (lock at base+0, counter at base+32), so every SM's SIB-PT
// confirms two spin-inducing branches.
const twoLockSrc = `
  ld.param %r10, 0
  ld.param %r11, 1
  mov %r1, %gtid
  mov %r6, 0
top1:
  atom.cas %r7, [%r10+0], 0, 1  !acquire,sync
  setp.eq %p1, %r7, 0           !sync
  @!%p1 bra again1 reconv=again1
  ld.volatile %r8, [%r10+32]
  add %r8, %r8, 1
  st.global [%r10+32], %r8
  mov %r6, 1
  membar                        !sync
  atom.exch %r9, [%r10+0], 0    !release,sync
again1:
  setp.eq %p2, %r6, 0           !sync
  @%p2 bra top1                 !sib,sync
  mov %r6, 0
top2:
  atom.cas %r7, [%r11+0], 0, 1  !acquire,sync
  setp.eq %p1, %r7, 0           !sync
  @!%p1 bra again2 reconv=again2
  ld.volatile %r8, [%r11+32]
  add %r8, %r8, 1
  st.global [%r11+32], %r8
  mov %r6, 1
  membar                        !sync
  atom.exch %r9, [%r11+0], 0    !release,sync
again2:
  setp.eq %p2, %r6, 0           !sync
  @%p2 bra top2                 !sib,sync
  exit
`

// TestConfirmedSIBsInPCOrder runs a two-lock program repeatedly: the
// confirmed-SIB list must be the same ascending list every time, equal
// to the annotated ground truth. A list built in map order differs
// between identical runs once a table holds two confirmed SIBs.
func TestConfirmedSIBsInPCOrder(t *testing.T) {
	const ctas, threads = 2, 128
	prog, err := isa.Parse("twolock", twoLockSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.TrueSIBs) != 2 || !slices.IsSorted(prog.TrueSIBs) {
		t.Fatalf("TrueSIBs = %v, want two spin branches in PC order", prog.TrueSIBs)
	}
	launch := sim.Launch{Prog: prog, GridCTAs: ctas, CTAThreads: threads,
		Params: []uint32{0, 64}, MemWords: 128}
	for i := 0; i < 40; i++ {
		eng, err := sim.New(detOptions(2, config.GTO, true), launch)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if a, b := res.Memory[32], res.Memory[96]; a != ctas*threads || b != ctas*threads {
			t.Fatalf("run %d: counters %d, %d, want %d each", i, a, b, ctas*threads)
		}
		if !slices.Equal(res.ConfirmedSIBs, prog.TrueSIBs) {
			t.Fatalf("run %d: ConfirmedSIBs = %v, want %v", i, res.ConfirmedSIBs, prog.TrueSIBs)
		}
	}
}

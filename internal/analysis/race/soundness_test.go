package race_test

import (
	"testing"

	"warpsched/internal/analysis"
	"warpsched/internal/analysis/race"
	"warpsched/internal/config"
	"warpsched/internal/isa"
	"warpsched/internal/kernels"
	"warpsched/internal/sim"
	"warpsched/internal/simt"
)

// shadowRec is one deduplicated memory access: which thread touched the
// word, from which instruction, in which barrier interval of its CTA.
type shadowRec struct {
	cta    int32
	epoch  int
	pc     int32
	write  bool // non-atomic store
	atomic bool
	gtid   int32
}

// shadowLog is a sim.Observer that builds a per-word access log with
// per-CTA barrier epochs. To bound memory it keeps at most two records
// (with distinct threads) per (addr, cta, epoch, pc) — two witnesses are
// enough to exhibit any conflicting pair.
type shadowLog struct {
	epochs map[int32]int
	recs   map[uint32][]shadowRec
	kept   map[shadowKey]int32 // first gtid kept for the key, or -1 when two are
}

type shadowKey struct {
	addr  uint32
	cta   int32
	epoch int
	pc    int32
}

func newShadowLog() *shadowLog {
	return &shadowLog{
		epochs: map[int32]int{},
		recs:   map[uint32][]shadowRec{},
		kept:   map[shadowKey]int32{},
	}
}

func (l *shadowLog) Access(w *simt.Warp, pc int32, in *isa.Instr, accs []simt.MemAccess) {
	cta := w.CTA.ID
	epoch := l.epochs[cta]
	for _, a := range accs {
		key := shadowKey{addr: a.Addr, cta: cta, epoch: epoch, pc: pc}
		prev, seen := l.kept[key]
		if seen && (prev == -1 || prev == a.GTID) {
			continue
		}
		if seen {
			l.kept[key] = -1
		} else {
			l.kept[key] = a.GTID
		}
		l.recs[a.Addr] = append(l.recs[a.Addr], shadowRec{
			cta: cta, epoch: epoch, pc: pc,
			write:  in.Op == isa.OpSt,
			atomic: in.Op.IsAtomic(),
			gtid:   a.GTID,
		})
	}
}

func (l *shadowLog) BarrierRelease(cta *simt.CTA) {
	l.epochs[cta.ID]++
}

// TestSoundnessAgainstDynamic is the dynamic validation of the static
// analyzer: every registered quick-suite kernel, and each inline program
// of wrapPrograms, runs under a shadow access log, and every observed
// pair of accesses to one word from two threads with at least one
// non-atomic store is checked against the prover's disjointness claims.
// A same-CTA same-interval collision on a pair proved disjoint within a
// barrier interval, or a cross-CTA collision on a pair proved disjoint
// across CTAs, means the static
// pass proved apart two accesses that demonstrably met — a soundness
// bug, not a tuning matter.
//
// Pairs the analyzer exempts (volatile spin reads, lock releases,
// lock-protected and !nolint-suppressed accesses) are never proved
// disjoint, so collisions on them — expected for the lock-based kernels —
// do not trip the check.
func TestSoundnessAgainstDynamic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed harness")
	}
	suite := append(kernels.QuickSyncSuite(), kernels.QuickSyncFreeSuite()...)
	for _, k := range suite {
		t.Run(k.Name, func(t *testing.T) { checkSoundness(t, k.Launch) })
	}
	for _, w := range wrapPrograms {
		t.Run(w.name, func(t *testing.T) {
			p, err := isa.Parse(w.name, w.src)
			if err != nil {
				t.Fatal(err)
			}
			launch := sim.Launch{Prog: p, GridCTAs: 1, CTAThreads: 32, Params: []uint32{100}, MemWords: 256}
			rep, checked := checkSoundness(t, launch)
			if checked == 0 {
				t.Error("no conflicting pair observed: the program no longer exercises wraparound")
			}
			if len(rep.Findings) == 0 {
				t.Error("static pass missed the wraparound race")
			}
		})
	}
}

// wrapPrograms store through 32-bit register arithmetic that wraps, so
// several lanes store to word 100 where exact integer arithmetic would
// keep them apart, in the address or in a guard that admits only lane
// 0. lane<<30 is 0 mod 2^32 for lanes 0, 4, …, 28; lane<<27 is negative
// as an int32 for lanes 16–31.
var wrapPrograms = []struct{ name, src string }{
	{"wrap-address", `
  ld.param %r10, 0
  mov %r1, %laneid
  and %r3, %r1, 3
  setp.eq %p1, %r3, 0
  shl %r2, %r1, 30
  @%p1 st.global [%r10+%r2], %r1
  exit
`},
	{"wrap-guard", `
  ld.param %r10, 0
  mov %r1, %laneid
  shl %r2, %r1, 30
  setp.eq %p1, %r2, 0
  @%p1 st.global [%r10], %r1
  exit
`},
	{"wrap-signed-guard", `
  ld.param %r10, 0
  mov %r1, %laneid
  shl %r2, %r1, 27
  setp.lt %p1, %r2, 1
  @%p1 st.global [%r10], %r1
  exit
`},
	{"wrap-rem", `
  ld.param %r10, 0
  mov %r1, %laneid
  shl %r2, %r1, 27
  add %r2, %r2, 1
  rem %r3, %r2, 2
  shl %r4, %r1, 1
  add %r5, %r3, %r4
  st.global [%r10+%r5], %r1
  exit
`},
}

// checkSoundness runs the launch under a shadow access log and fails t
// for every observed collision on a pair the prover claims disjoint. It
// returns the static report and the number of conflicting pairs checked.
func checkSoundness(t *testing.T, launch sim.Launch) (*analysis.Report, int) {
	t.Helper()
	rep, disjoint := race.AnalyzeDisjoint(launch.Prog, race.Options{
		GridCTAs:   int32(launch.GridCTAs),
		CTAThreads: int32(launch.CTAThreads),
	})

	log := newShadowLog()
	eng, err := sim.New(sim.Options{
		GPU:      config.GTX480().Scaled(2),
		Sched:    config.GTO,
		BOWS:     config.BOWS{Mode: config.BOWSOff},
		DDOS:     config.DefaultDDOS(),
		Observer: log,
	}, launch)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(log.recs) == 0 {
		t.Fatal("shadow log observed no memory accesses")
	}

	checked := 0
	for addr, rs := range log.recs {
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				a, b := rs[i], rs[j]
				if a.gtid == b.gtid || (!a.write && !b.write) {
					continue
				}
				key := [2]int32{a.pc, b.pc}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				checked++
				if a.cta == b.cta {
					if a.epoch == b.epoch && disjoint.SameCTA[key] {
						t.Errorf("soundness: word %d touched by gtid %d (pc %d) and gtid %d (pc %d) in interval %d of CTA %d, but the prover claims same-CTA disjointness",
							addr, a.gtid, a.pc, b.gtid, b.pc, a.epoch, a.cta)
					}
				} else if disjoint.CrossCTA[key] {
					t.Errorf("soundness: word %d touched by gtid %d (pc %d, CTA %d) and gtid %d (pc %d, CTA %d), but the prover claims cross-CTA disjointness",
						addr, a.gtid, a.pc, a.cta, b.gtid, b.pc, b.cta)
				}
			}
		}
	}
	t.Logf("%s: %d words, %d conflicting pairs checked", launch.Prog.Name, len(log.recs), checked)
	return rep, checked
}

// TestSoundnessHarnessCatchesMisses turns the harness on itself: a
// seeded racy program (neighbouring-lane store/store overlap that the
// static pass correctly reports) must also produce observed same-
// interval collisions, proving the shadow log can see the races the
// static analyzer is being audited for.
func TestSoundnessHarnessCatchesMisses(t *testing.T) {
	src := `
  ld.param %r2, 0
  mov %r1, %tid
  st.global [%r2+%r1], %r1
  shr %r3, %r1, 1
  st.global [%r2+%r3], %r1   // lanes 2k and 2k+1 collide on word k
  exit
`
	p, err := isa.Parse("seeded", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(race.Analyze(p, race.Options{GridCTAs: 1, CTAThreads: 64}).Findings) == 0 {
		t.Fatal("static pass missed the seeded race")
	}

	log := newShadowLog()
	eng, err := sim.New(sim.Options{
		GPU:      config.GTX480().Scaled(2),
		Sched:    config.GTO,
		BOWS:     config.BOWS{Mode: config.BOWSOff},
		DDOS:     config.DefaultDDOS(),
		Observer: log,
	}, sim.Launch{Prog: p, GridCTAs: 1, CTAThreads: 64, Params: []uint32{0}, MemWords: 128})
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	collisions := 0
	for _, rs := range log.recs {
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				a, b := rs[i], rs[j]
				if a.gtid != b.gtid && a.write && b.write && a.epoch == b.epoch {
					collisions++
				}
			}
		}
	}
	if collisions == 0 {
		t.Fatal("shadow log observed no collision on a known-racy program")
	}
}

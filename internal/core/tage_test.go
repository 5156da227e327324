package core

import (
	"math"
	"math/rand"
	"testing"

	"warpsched/internal/config"
)

func tageCfg() config.TAGE { return config.DefaultTAGE() }

// feedTageSpin drives one warp through n iterations of a two-setp spin
// loop with constant operand values, mirroring feedSpin for DDOS.
func feedTageSpin(t *TAGESIB, slot int, n int, cycle *int64) {
	for i := 0; i < n; i++ {
		t.OnSetp(slot, 15, 0, 1, 0)
		t.OnSetp(slot, 23, 0, 0, 0)
		t.OnBranch(slot, 24, true, *cycle)
		*cycle += 100
	}
}

func TestTAGEDetectsConstantSpin(t *testing.T) {
	d := NewTAGESIB(tageCfg(), 4)
	var cycle int64
	feedTageSpin(d, 0, 10, &cycle)
	if !d.Spinning(0) {
		t.Fatal("warp with repeating path+values must be classified spinning")
	}
	if !d.IsSIB(24) {
		t.Fatal("branch must be confirmed after threshold bumps")
	}
	m := d.Metrics()
	if m.TrueSeen != 1 || m.TrueDetected != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestTAGEIgnoresCountedLoop(t *testing.T) {
	d := NewTAGESIB(tageCfg(), 4)
	var cycle int64
	for i := 0; i < 50; i++ {
		d.OnSetp(0, 58, 0, uint32(i), 100)
		d.OnBranch(0, 60, false, cycle)
		cycle += 50
	}
	if d.Spinning(0) {
		t.Fatal("counted loop misclassified as spinning")
	}
	if d.IsSIB(60) {
		t.Fatal("counted loop branch must not be confirmed")
	}
	m := d.Metrics()
	if m.FalseSeen != 1 || m.FalseDetected != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestTAGELaneChangeResets(t *testing.T) {
	// A change of profiled lane must reset the slot: values from
	// different threads never chain into a false operand repeat.
	d := NewTAGESIB(tageCfg(), 4)
	for i := 0; i < 20; i++ {
		d.OnSetp(0, 15, i%2, 1, 0) // alternating lanes, constant values
	}
	if d.slots[0].streak > 0 {
		t.Fatalf("streak = %d after lane flip, want 0", d.slots[0].streak)
	}
	if d.Spinning(0) {
		t.Fatal("lane-alternating warp must not be classified spinning")
	}
}

// seededHistory drives slot 0 through a deterministic pseudo-random mix
// of setp PCs and operand patterns (xorshift-seeded, no wall clock), so
// allocation-path tests exercise a rich set of folded histories.
func seededHistory(d *TAGESIB, seed uint64, events int) {
	x := seed
	for i := 0; i < events; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pc := int32(4 * (1 + x%32))
		v := uint32(0)
		if x&0x100 != 0 {
			v = uint32(x >> 16 & 0xff) // changing operand: breaks repeats
		}
		d.OnSetp(0, pc, 0, v, 0)
	}
}

func TestTAGEAllocatesOnMispredict(t *testing.T) {
	cfg := tageCfg()
	d := NewTAGESIB(cfg, 1)
	seededHistory(d, 0x9e3779b97f4a7c15, 2000)
	if d.allocs == 0 {
		t.Fatal("mispredictions over a varied history must allocate tagged entries")
	}
	if d.predHits+d.predMisses != 2000 {
		t.Fatalf("every OnSetp must score the prediction: hits+misses = %d",
			d.predHits+d.predMisses)
	}
}

func TestTAGEUsefulDecayFreesEntries(t *testing.T) {
	// Tiny tables and a short decay period: sustained allocation pressure
	// must trigger the global useful decay instead of wedging forever.
	cfg := config.TAGE{Tables: 2, BaseHist: 2, Ratio: 2, IndexBits: 2,
		TagBits: 8, ConfidenceThreshold: 4, UsefulDecayPeriod: 4}
	d := NewTAGESIB(cfg, 1)
	seededHistory(d, 0xdeadbeefcafef00d, 5000)
	if d.allocFails == 0 {
		t.Skip("workload produced no allocation failures; decay not exercised")
	}
	if d.usefulDecays == 0 {
		t.Fatalf("allocFails = %d without a useful decay (period %d)",
			d.allocFails, cfg.UsefulDecayPeriod)
	}
}

func TestTAGEAliasedIndexCannotFakeSpin(t *testing.T) {
	// PCs 15 and 79 share a base index at IndexBits=4 ((pc>>2) & 15 == 3
	// for both). Training a spin on one warp at pc 15 must not classify
	// another warp's counted loop at pc 79 as spinning: the spin
	// classification requires the current observation to be an operand
	// repeat, so tag or index aliasing alone can never fake a spin.
	cfg := tageCfg()
	cfg.IndexBits = 4
	d := NewTAGESIB(cfg, 2)
	var cycle int64
	feedTageSpin(d, 0, 20, &cycle)
	for i := 0; i < 50; i++ {
		d.OnSetp(1, 79, 0, uint32(i), 100)
		d.OnBranch(1, 80, false, cycle)
		cycle += 50
	}
	if !d.Spinning(0) {
		t.Fatal("trained spin warp must stay classified")
	}
	if d.Spinning(1) {
		t.Fatal("aliased counted loop misclassified as spinning")
	}
	if d.IsSIB(80) {
		t.Fatal("aliased counted-loop branch must not be confirmed")
	}
}

func TestTAGEDeterministic(t *testing.T) {
	// Two predictors fed the same event stream must agree bit for bit on
	// every observable: the engine's determinism gate rests on this.
	a := NewTAGESIB(tageCfg(), 2)
	b := NewTAGESIB(tageCfg(), 2)
	for _, d := range []*TAGESIB{a, b} {
		seededHistory(d, 42, 3000)
		var cycle int64
		feedTageSpin(d, 1, 10, &cycle)
	}
	if a.allocs != b.allocs || a.allocFails != b.allocFails ||
		a.usefulDecays != b.usefulDecays ||
		a.predHits != b.predHits || a.predMisses != b.predMisses {
		t.Fatalf("counter divergence: %+v vs %+v",
			[]int64{a.allocs, a.allocFails, a.usefulDecays, a.predHits, a.predMisses},
			[]int64{b.allocs, b.allocFails, b.usefulDecays, b.predHits, b.predMisses})
	}
	for slot := 0; slot < 2; slot++ {
		if a.Spinning(slot) != b.Spinning(slot) {
			t.Fatalf("slot %d classification diverged", slot)
		}
	}
	am, bm := a.Metrics(), b.Metrics()
	if am != bm {
		t.Fatalf("metrics diverged: %+v vs %+v", am, bm)
	}
}

// refFold recomputes a folded history from s's ring: the newest length
// records compressed into width bits by rotate-and-XOR, oldest first so
// the newest record lands unrotated. It is how TAGESIB computed every
// fold on every lookup before it kept them.
func refFold(s *tageSlot, length, width int) uint32 {
	mask := uint32(1)<<width - 1
	rot := 3 % width
	var h uint32
	for j := length - 1; j >= 0; j-- {
		if rot > 0 {
			h = ((h << rot) | (h >> (width - rot))) & mask
		}
		if j < s.n {
			h ^= uint32(s.ring[(s.head-j+len(s.ring))%len(s.ring)]) & mask
		}
	}
	return h
}

// TestTAGEFoldsMatchRecompute checks the kept folds against refFold after
// every push, over random valid geometries — 1 to 8 tables, index and tag
// widths 1 to 16, geometric history lengths — with random lane-change
// resets in between.
func TestTAGEFoldsMatchRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var cfg config.TAGE
		for {
			cfg = config.TAGE{Tables: 1 + rng.Intn(8), BaseHist: 1 + rng.Intn(6), Ratio: 2 + rng.Intn(3),
				IndexBits: 1 + rng.Intn(16), TagBits: 1 + rng.Intn(16), ConfidenceThreshold: 4, UsefulDecayPeriod: 64}
			if cfg.Validate() == nil {
				break
			}
		}
		d := NewTAGESIB(cfg, 1)
		s := &d.slots[0]
		for push := 0; push < 300; push++ {
			if rng.Intn(50) == 0 {
				s.reset()
			}
			d.push(s, uint16(rng.Uint32()))
			for i := 0; i < cfg.Tables; i++ {
				h := d.folds[2*i].length
				if got, want := s.folds[2*i], refFold(s, h, cfg.IndexBits); got != want {
					t.Fatalf("%+v push %d: table %d index fold %#x, recomputed %#x", cfg, push, i, got, want)
				}
				if got, want := s.folds[2*i+1], refFold(s, h, cfg.TagBits); got != want {
					t.Fatalf("%+v push %d: table %d tag fold %#x, recomputed %#x", cfg, push, i, got, want)
				}
			}
		}
	}
}

func TestTAGEFastForwardContract(t *testing.T) {
	// The engine's event-driven fast-forward is exact only because Tick
	// is a no-op; the boundary must advertise that.
	d := NewTAGESIB(tageCfg(), 1)
	if got := d.NextEpochBoundary(); got != math.MaxInt64 {
		t.Fatalf("NextEpochBoundary = %d, want MaxInt64", got)
	}
}

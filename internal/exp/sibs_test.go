package exp

import (
	"slices"
	"testing"

	"warpsched/internal/isa"
)

// TestSIBsDerived pins the SIB ground truth isa.Builder.Build derives for
// every distinct program the harness builds: the registered suites at
// both scales, then the fig1, fig3 and fig16 hashtables (the golden sweep
// reuses the sync suite). The literals were read from the hand-written
// sib annotations the derivation replaced, so Table I's TSDR/FSDR score
// DDOS against the same truth as before. Two hand-made programs pin the
// rule's edges: a sync delay loop that waits on the clock alone is not a
// SIB, and a sync wait loop on ld.volatile is.
func TestSIBsDerived(t *testing.T) {
	want := map[string][]int32{
		"TB/full": {73}, "ST/full": {33}, "DS/full": {36}, "ATM/full": {34},
		"HT/full": {24}, "TSP/full": {41}, "NW1/full": {30}, "NW2/full": {33},
		"TB/quick": {68}, "ST/quick": {33}, "NW1/quick": {30}, "NW2/quick": {33},
		"HT/delay50": {32},

		"KMEANS/full": nil, "VECADD/full": nil, "REDUCE/full": nil, "MS/full": nil,
		"HL/full": nil, "STENCIL/full": nil, "BFS/full": nil, "HOTSPOT/full": nil,
		"PATHFINDER/full": nil, "BACKPROP/full": nil, "SRAD/full": nil, "LUD/full": nil,
		"NN/full": nil, "GAUSSIAN/full": nil,

		"delay-loop": nil, "wait-loop": {3},
	}
	got := map[string][]int32{}
	seen := map[string]bool{}
	add := func(id string, p *isa.Program) {
		if text := p.Assembly(); !seen[text] {
			seen[text] = true
			got[id] = p.TrueSIBs
		}
	}
	for _, quick := range []bool{false, true} {
		c := Cfg{Quick: quick}
		scale := map[bool]string{false: "/full", true: "/quick"}[quick]
		for _, k := range slices.Concat(c.syncSuite(), c.syncFreeSuite()) {
			add(k.Name+scale, k.Launch.Prog)
		}
	}
	for _, k := range sweepKernels() {
		add(k.Name, k.Launch.Prog)
	}
	for name, src := range map[string]string{
		"delay-loop": `
  mov %r1, %clock            !sync
delay:
  mov %r2, %clock            !sync
  sub %r2, %r2, %r1          !sync
  setp.lt %p0, %r2, 50       !sync
  @%p0 bra delay             !sync  // 4: clock only
  exit
`,
		"wait-loop": `
  ld.param %r2, 0
wait:
  ld.volatile %r1, [%r2+0]   !sync
  setp.eq %p0, %r1, 0        !sync
  @%p0 bra wait              !sync  // 3: re-reads a shared word
  exit
`,
	} {
		p, err := isa.Parse(name, src)
		if err != nil {
			t.Fatal(err)
		}
		add(name, p)
	}
	for id, pcs := range got {
		if w, ok := want[id]; !ok {
			t.Errorf("%s: TrueSIBs = %v, not pinned", id, pcs)
		} else if !slices.Equal(pcs, w) {
			t.Errorf("%s: TrueSIBs = %v, want %v", id, pcs, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d distinct programs, %d pinned", len(got), len(want))
	}
}

package analysis

import (
	"slices"
	"testing"

	"warpsched/internal/isa"
)

// The structural shapes the builder emits (and the paper's kernels use),
// written as assembly so the tests are independent of the builder's own
// reconvergence computation. For each shape we pin the successor edges and
// the immediate (post-)dominators of the interesting nodes, and require
// checkCFG to agree that every reconvergence point is the branch's IPDOM.

const srcIfElse = `
  mov %r1, %tid                // 0
  setp.lt %p0, %r1, 16         // 1
  @!%p0 bra else reconv=join   // 2
  mov %r2, 1                   // 3
  bra join                     // 4
else:
  mov %r2, 2                   // 5
join:
  ld.param %r3, 0              // 6
  st.global [%r3+0], %r2       // 7
  exit                         // 8
`

const srcNestedLoops = `
  mov %r1, 0           // 0
outer:
  mov %r2, 0           // 1
inner:
  add %r2, %r2, 1      // 2
  setp.lt %p1, %r2, 4  // 3
  @%p1 bra inner       // 4
  add %r1, %r1, 1      // 5
  setp.lt %p0, %r1, 4  // 6
  @%p0 bra outer       // 7
  exit                 // 8
`

// Bottom-tested spin loop, the Figure 7a shape: the backward branch
// reconverges at its own fall-through.
const srcSpinLoop = `
  ld.param %r2, 0            // 0
top:
  ld.volatile %r1, [%r2+0]   // 1
  setp.ne %p0, %r1, 0        // 2
  @%p0 bra top    !sib,sync  // 3
  exit                       // 4
`

// An unstructured diamond the builder cannot emit: the first branch jumps
// into the middle of the region the second branch also reaches. Both still
// reconverge at the common join, which IPDOM must find.
const srcUnstructured = `
  mov %r1, %tid              // 0
  setp.lt %p0, %r1, 8        // 1
  setp.lt %p1, %r1, 4        // 2
  @%p0 bra mid reconv=join   // 3
  add %r1, %r1, 1            // 4
  @%p1 bra join reconv=join  // 5
mid:
  add %r1, %r1, 2            // 6
join:
  ld.param %r2, 0            // 7
  st.global [%r2+0], %r1     // 8
  exit                       // 9
`

func TestCFGShapes(t *testing.T) {
	cases := []struct {
		name string
		src  string
		succ map[int32][]int32 // spot-checked successor lists
		idom map[int32]int32   // spot-checked immediate dominators
		ipdo map[int32]int32   // spot-checked immediate post-dominators
	}{
		{
			name: "if-else",
			src:  srcIfElse,
			succ: map[int32][]int32{2: {5, 3}, 4: {6}, 8: {9}},
			idom: map[int32]int32{3: 2, 5: 2, 6: 2},
			ipdo: map[int32]int32{2: 6, 3: 4, 5: 6},
		},
		{
			name: "nested-loops",
			src:  srcNestedLoops,
			succ: map[int32][]int32{4: {2, 5}, 7: {1, 8}},
			idom: map[int32]int32{2: 1, 5: 4, 8: 7},
			ipdo: map[int32]int32{4: 5, 7: 8, 1: 2},
		},
		{
			name: "spin-loop",
			src:  srcSpinLoop,
			succ: map[int32][]int32{3: {1, 4}},
			idom: map[int32]int32{4: 3},
			ipdo: map[int32]int32{3: 4, 1: 2},
		},
		{
			name: "unstructured-diamond",
			src:  srcUnstructured,
			succ: map[int32][]int32{3: {6, 4}, 5: {7, 6}},
			idom: map[int32]int32{4: 3, 6: 3, 7: 3},
			ipdo: map[int32]int32{3: 7, 5: 7, 6: 7},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := isa.Parse(c.name, c.src)
			if err != nil {
				t.Fatal(err)
			}
			g := BuildCFG(p)
			for pc, want := range c.succ {
				got := g.Succ[pc]
				if len(got) != len(want) {
					t.Fatalf("Succ[%d] = %v, want %v", pc, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("Succ[%d] = %v, want %v", pc, got, want)
					}
				}
			}
			idom := g.Dominators()
			for pc, want := range c.idom {
				if idom[pc] != want {
					t.Errorf("idom[%d] = %d, want %d", pc, idom[pc], want)
				}
			}
			ipdom := g.PostDominators()
			for pc, want := range c.ipdo {
				if ipdom[pc] != want {
					t.Errorf("ipdom[%d] = %d, want %d", pc, ipdom[pc], want)
				}
			}
			// Every guarded branch's Reconv must equal its IPDOM, and the
			// shapes above are otherwise structurally clean.
			if fs := checkCFG(g); len(fs) != 0 {
				t.Errorf("checkCFG: unexpected findings %v", fs)
			}
		})
	}
}

func TestDivergentRegion(t *testing.T) {
	p, err := isa.Parse("ifelse", srcIfElse)
	if err != nil {
		t.Fatal(err)
	}
	g := BuildCFG(p)
	region := g.DivergentRegion(2) // the @!%p0 branch, reconv at 6
	for pc := int32(0); pc <= g.N; pc++ {
		want := pc >= 3 && pc <= 5
		if region[pc] != want {
			t.Errorf("DivergentRegion(2)[%d] = %v, want %v", pc, region[pc], want)
		}
	}
}

func TestWalk(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		seeds []int32
		back  bool
		stops []int32 // nil: expand every node
		want  []int32 // every marked node; node N is the virtual exit
	}{
		{"forward", srcIfElse, []int32{2}, false, nil, []int32{2, 3, 4, 5, 6, 7, 8, 9}},
		{"forward-stop", srcIfElse, []int32{2}, false, []int32{6}, []int32{2, 3, 4, 5, 6}},
		{"forward-seeds", srcIfElse, []int32{3, 5}, false, []int32{6}, []int32{3, 4, 5, 6}},
		{"stop-seed", srcNestedLoops, []int32{3}, false, []int32{3}, []int32{3}},
		{"loop-stop", srcSpinLoop, []int32{1}, false, []int32{3}, []int32{1, 2, 3}},
		{"back", srcIfElse, []int32{6}, true, nil, []int32{0, 1, 2, 3, 4, 5, 6}},
		{"back-stop", srcIfElse, []int32{6}, true, []int32{2}, []int32{2, 3, 4, 5, 6}},
		{"back-loops", srcNestedLoops, []int32{8}, true, []int32{4}, []int32{4, 5, 6, 7, 8}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := isa.Parse(c.name, c.src)
			if err != nil {
				t.Fatal(err)
			}
			g := BuildCFG(p)
			var stop func(int32) bool
			if c.stops != nil {
				stop = func(v int32) bool { return slices.Contains(c.stops, v) }
			}
			got := g.Walk(c.seeds, c.back, stop)
			for v := int32(0); v <= g.N; v++ {
				if want := slices.Contains(c.want, v); got[v] != want {
					t.Errorf("Walk(%v, back=%v, stops %v)[%d] = %v, want %v", c.seeds, c.back, c.stops, v, got[v], want)
				}
			}
		})
	}
	// With a nil stop, a walk from entry is the CFG's own reachability,
	// and every node of these fixtures is reachable.
	for _, src := range []string{srcIfElse, srcNestedLoops, srcSpinLoop, srcUnstructured} {
		p, err := isa.Parse("reach", src)
		if err != nil {
			t.Fatal(err)
		}
		g := BuildCFG(p)
		got := g.Walk([]int32{0}, false, nil)
		if !slices.Equal(got, g.Reachable) || slices.Contains(got, false) {
			t.Errorf("Walk from entry = %v, Reachable = %v", got, g.Reachable)
		}
	}
}

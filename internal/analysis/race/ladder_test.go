package race_test

import (
	"fmt"
	"strings"
	"testing"

	"warpsched/internal/analysis/race"
	"warpsched/internal/isa"
)

// ladderSrc is the admission-cost probe: n guarded branch-over-store
// rungs, 3n+4 instructions. Every store is guarded and every pair of
// them goes to the conflict prover, so the cost grows with the pairs.
func ladderSrc(n int) string {
	var b strings.Builder
	b.WriteString("ld.param %r10, 0\nmov %r1, %gtid\nmov %r2, 7\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "setp.lt %%p1, %%r1, %d\n@%%p1 bra L%d reconv=L%d\n@!%%p1 st.global [%%r10+%%r1], %%r2\nL%d:\n",
			i+1, i, i, i)
	}
	b.WriteString("exit\n")
	return b.String()
}

// TestLadderInstantiationsLinear pins how the pair stage grows, without
// a timer: analyzing a ladder of 4n rungs may build at most 4× the
// prover instantiations of a ladder of n. Every rung's store shares one
// address form, so a prover that instantiated every pair would build
// 16×.
func TestLadderInstantiationsLinear(t *testing.T) {
	count := func(n int) int {
		p, err := isa.Parse("ladder", ladderSrc(n))
		if err != nil {
			t.Fatal(err)
		}
		opt := race.Options{GridCTAs: 2, CTAThreads: 64}
		if rep := race.Analyze(p, opt); !rep.Clean() {
			t.Fatalf("ladder of %d rungs: %d findings, want none", n, len(rep.Findings))
		}
		return race.Instantiations(p, opt)
	}
	small, large := count(16), count(64)
	if small <= 0 || large > 4*small {
		t.Fatalf("prover instantiations: %d for 16 rungs, %d for 64; want at most 4×", small, large)
	}
}

// BenchmarkAnalyzeLadder times race.Analyze at 2 CTAs × 64 threads on
// ladders of 34, 67, 130, 256 and 1024 instructions; 256 is the inline
// program ceiling warpsimd admits.
func BenchmarkAnalyzeLadder(b *testing.B) {
	for _, n := range []int{10, 21, 42, 84, 340} {
		p, err := isa.Parse("ladder", ladderSrc(n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("instrs=%d", p.Len()), func(b *testing.B) {
			for range b.N {
				race.Analyze(p, race.Options{GridCTAs: 2, CTAThreads: 64})
			}
		})
	}
}

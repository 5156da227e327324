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

// BenchmarkAnalyzeLadder times race.Analyze at 2 CTAs × 64 threads on
// ladders of 34, 67, 130 and 256 instructions; the last is the inline
// program ceiling warpsimd admits.
func BenchmarkAnalyzeLadder(b *testing.B) {
	for _, n := range []int{10, 21, 42, 84} {
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

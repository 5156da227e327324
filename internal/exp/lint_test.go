package exp

import (
	"fmt"
	"slices"
	"testing"

	"warpsched/internal/analysis"
	"warpsched/internal/analysis/race"
	"warpsched/internal/kernels"
)

// TestHashtableSweepsLintClean runs warplint's two analyzers over every
// distinct program and launch geometry the fig1, fig3 and fig16 sweeps
// build, at quick and full scale, and requires no findings. These
// hashtable variants are not in the registered suite, so warplint -all
// never sees them.
func TestHashtableSweepsLintClean(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range sweepKernels() {
		l := &k.Launch
		id := fmt.Sprintf("%dx%d\n%s", l.GridCTAs, l.CTAThreads, l.Prog.Assembly())
		if seen[id] {
			continue
		}
		seen[id] = true
		rep := analysis.Analyze(l.Prog)
		rrep := race.Analyze(l.Prog, race.Options{GridCTAs: int32(l.GridCTAs), CTAThreads: int32(l.CTAThreads)})
		for _, f := range append(rep.Findings, rrep.Findings...) {
			t.Errorf("%s at %dx%d: %s", k.Name, l.GridCTAs, l.CTAThreads, f)
		}
	}
	t.Logf("%d distinct programs and geometries", len(seen))
}

// sweepKernels returns the kernel of every spec the fig1, fig3 and fig16
// sweeps build, quick scale first.
func sweepKernels() []*kernels.Kernel {
	var ks []*kernels.Kernel
	for _, quick := range []bool{true, false} {
		c := Cfg{Quick: quick}
		_, fig1 := fig1Specs(c)
		_, fig3 := fig3Specs(c)
		for _, sp := range slices.Concat(fig1, fig3, Fig16Specs(c)) {
			ks = append(ks, sp.Kernel)
		}
	}
	return ks
}

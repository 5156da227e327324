package report

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"warpsched/internal/energy"
	"warpsched/internal/exp"
	"warpsched/internal/metrics"
	"warpsched/internal/stats"
)

// The paper's headline claims, as README "Reproduction status" states
// them, and EXPERIMENTS.md Known divergences 1, 2, 5 and 6, as bounds over the
// archived full-scale manifest. The golden and drift gates pin the bytes
// of the report; these pin what the bytes say, so a regrown manifest that
// drifts the wrong way fails here even when it is committed with -update.
// A bound that moves is a reviewed change to this file and to
// EXPERIMENTS.md, not a silent one.
const (
	// maxPaperSpeedupGap is today's benchmark layer report.paper_speedup_gap:
	// |Fig. 9 harmonic-mean CAWA speedup − the paper's 1.5| ÷ 1.5.
	maxPaperSpeedupGap = 0.2208
	// energyBoxSpan bounds the energy claim's coefficient box: each of
	// the nine per-event energies anywhere in [c/4, 4c] of its nominal c.
	energyBoxSpan = 4
	// maxSTSlowdown is the worst BOWS slowdown of ST over the six Fig. 9/15
	// scheduler pairs (Known divergence 1): 2.718 for GTO on Fermi, the
	// others 1.97 to 2.48.
	maxSTSlowdown = 2.72
)

// moduloFalseDetects pins, per MODULO-hashed configuration, which
// sync-free kernels it falsely confirms a SIB in (Known divergence 2; the
// paper names MS and HL only). Their union is nine of the fourteen
// kernels. XOR hashing flags none in any of these configurations.
var moduloFalseDetects = map[string][]string{
	"fig14 BOWS(5000)":     {"BFS", "HL", "HOTSPOT", "KMEANS", "LUD", "MS", "STENCIL", "VECADD"},
	"table1 MODULO, m=k=4": {"BFS", "HL", "HOTSPOT", "KMEANS", "MS", "REDUCE", "STENCIL", "VECADD"},
	"table1 MODULO, m=k=8": {"HL", "HOTSPOT", "KMEANS", "MS", "STENCIL", "VECADD"},
}

// claims returns one line per claim or bound the report violates.
func claims(r *Report) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	// BOWS wins in gmean time and dynamic energy against every baseline on
	// both machines. (The harmonic mean is not asserted: GTO's reads 0.95
	// on Fermi and 0.97 on Pascal.)
	for _, b := range []*exp.BarsSection{r.Fig9, r.Fig15} {
		for _, sched := range []string{"LRR", "GTO", "CAWA"} {
			if b.Speedup[sched] <= 1 {
				fail("%s: BOWS gmean speedup over %s is %.3f, want > 1", b.Exp, sched, b.Speedup[sched])
			}
			if b.EnergySaving[sched] <= 1 {
				fail("%s: BOWS gmean energy saving over %s is %.3f, want > 1", b.Exp, sched, b.EnergySaving[sched])
			}
		}
	}
	// The paper's ordering LRR > CAWA > GTO holds on Fermi, whose sweep
	// has no watchdog-aborted runs. Pascal's gmean over all kernels rests
	// on three lower bounds whose baselines never finish (ATM/LRR, DS/GTO,
	// DS/CAWA), so its order is asserted over the pairs whose runs both
	// finished: there BOWS wins against every baseline, in the order
	// CAWA > LRR > GTO against the paper's 1.9/1.7/1.5 (Known divergence 5).
	pascal := finishedSpeedup(r.Fig15)
	for _, sched := range []string{"LRR", "GTO", "CAWA"} {
		if pascal[sched] <= 1 {
			fail("fig15: BOWS gmean speedup over %s on finished pairs is %.3f, want > 1", sched, pascal[sched])
		}
	}
	for _, o := range []struct {
		exp     string
		speedup map[string]float64
		order   []string
	}{{"fig9", r.Fig9.Speedup, []string{"LRR", "CAWA", "GTO"}}, {"fig15 finished pairs", pascal, []string{"CAWA", "LRR", "GTO"}}} {
		for i := 1; i < len(o.order); i++ {
			hi, lo := o.order[i-1], o.order[i]
			if o.speedup[hi] <= o.speedup[lo] {
				fail("%s: BOWS speedup over %s (%.3f) no longer exceeds that over %s (%.3f)",
					o.exp, hi, o.speedup[hi], lo, o.speedup[lo])
			}
		}
	}
	// The energy win holds over a box of energy models, not only at the
	// nominal coefficients: the gmean over kernels of each kernel's worst
	// saving anywhere in [c/4, 4c] stays above 1.
	for _, tag := range []string{"fig9", "fig15"} {
		pairs, c, err := energyPairs(r.Set(), tag)
		if err != nil {
			fail("%s: %v", tag, err)
			continue
		}
		bound := boxBound(pairs, c, energyBoxSpan, func(energyPair) bool { return true })
		for _, sched := range []string{"LRR", "GTO", "CAWA"} {
			if bound[sched] <= 1 {
				fail("%s: BOWS energy saving over %s falls to %.3f in the [c/%d, %dc] coefficient box, want > 1",
					tag, sched, bound[sched], energyBoxSpan, energyBoxSpan)
			}
		}
	}
	if gap := math.Abs(r.Fig9.HmeanSpeedup["CAWA"]-1.5) / 1.5; gap > maxPaperSpeedupGap {
		fail("fig9: paper speedup gap %.4f, want <= %.4f", gap, maxPaperSpeedupGap)
	}

	// Table I at the paper's XOR m=k=8 configuration.
	syncFree := r.Fig14.Kernels
	if len(syncFree) != 14 {
		fail("fig14 covers %d sync-free kernels, want 14", len(syncFree))
	}
	for _, row := range r.Table1.Blocks[0].Rows {
		if row.Label == "XOR, m=k=8" && (row.TSDR != 1 || row.FSDR != 0) {
			fail("table1 XOR, m=k=8: TSDR %.3f FSDR %.3f, want 1 and 0", row.TSDR, row.FSDR)
		}
	}

	// Known divergence 2: who MODULO false-detects, and that XOR does not.
	flagged := map[string][]string{}
	for _, k := range syncFree {
		if r.Fig14.FalseXOR[k] != 0 {
			fail("fig14: XOR hashing falsely confirmed %d SIBs in %s, want none", r.Fig14.FalseXOR[k], k)
		}
		if r.Fig14.FalseMOD[k] > 0 {
			flagged["fig14 BOWS(5000)"] = append(flagged["fig14 BOWS(5000)"], k)
		}
	}
	for _, col := range exp.Table1Columns() {
		label := "table1 " + col.Label
		_, modulo := moduloFalseDetects[label]
		if !modulo && !strings.HasPrefix(col.Label, "XOR") {
			continue
		}
		for _, k := range syncFree {
			rec, err := r.Set().FindDDOS("table1", k, string(col.Sched), col.BOWS.Desc(), col.DetectorDesc())
			if err != nil {
				fail("%s: %v", label, err)
				continue
			}
			run, err := exp.RunOfRecord(rec)
			if err != nil {
				fail("%s: %v", label, err)
				continue
			}
			switch n := run.Detection.FalseDetected; {
			case n > 0 && modulo:
				flagged[label] = append(flagged[label], k)
			case n > 0:
				fail("%s: falsely confirmed %d SIBs in %s, want none", label, n, k)
			}
		}
	}
	for label, want := range moduloFalseDetects {
		got := flagged[label]
		sort.Strings(got)
		if !slices.Equal(got, want) {
			fail("%s: MODULO false-detects %v, want %v", label, got, want)
		}
	}

	// Known divergence 1: ST slows under BOWS, in a pinned shape. Delay
	// columns: GTO, BOWS(0), BOWS(500), BOWS(1000), BOWS(3000), BOWS(5000),
	// BOWS(Adaptive), normalized to GTO.
	st := r.Delay.Time["ST"]
	if len(st) != 7 {
		fail("delaysweep: ST has %d columns, want 7", len(st))
		return bad
	}
	if math.Abs(st[1].Value-1) > 0.01 {
		fail("delaysweep: ST BOWS(0) at %.4f of GTO, want within 1%%", st[1].Value)
	}
	for i := 2; i <= 5; i++ {
		if st[i].Value <= st[i-1].Value {
			fail("delaysweep: ST time %.3f at %s does not rise above %.3f at %s",
				st[i].Value, r.Delay.Columns[i], st[i-1].Value, r.Delay.Columns[i-1])
		}
	}
	if adaptive := st[6].Value; adaptive <= st[3].Value || adaptive >= st[4].Value {
		fail("delaysweep: ST adaptive BOWS at %.3f, want between BOWS(1000) %.3f and BOWS(3000) %.3f",
			adaptive, st[3].Value, st[4].Value)
	}
	for _, b := range []*exp.BarsSection{r.Fig9, r.Fig15} {
		t := b.Time["ST"]
		for i := 0; i+1 < len(t); i += 2 {
			if slow := t[i+1].Value / t[i].Value; slow > maxSTSlowdown {
				fail("%s: ST slows %.3fx under %s, want <= %.2fx", b.Exp, slow, b.Columns[i+1], maxSTSlowdown)
			}
		}
	}
	fig16Claims(r.Set(), fail)
	return bad
}

// fig16Claims asserts Fig. 16 over its 18 records, found by the variant
// hash of the full-scale sweep's specs: BOWS's speedup over GTO exceeds
// 1.5x at 128 buckets and falls with every halving of contention through
// 2048 buckets, and its dynamic instruction count, below GTO's
// everywhere, rises towards it. Known divergence 6: the paper has BOWS
// still 1.2x faster at 4096 buckets and ideal blocking below BOWS; here
// BOWS is at most 5% slower than GTO at 2048 and 4096 buckets, and ideal
// blocking executes more instructions than BOWS at every bucket count.
func fig16Claims(s *Set, fail func(string, ...any)) {
	byVariant := map[string]*metrics.RunRecord{}
	for _, rec := range s.Runs("fig16") {
		byVariant[rec.Variant] = rec
	}
	specs := exp.Fig16Specs(exp.Cfg{})
	recs := make([]*metrics.RunRecord, len(specs))
	for i, sp := range specs {
		if recs[i] = byVariant[exp.VariantHash(sp)]; recs[i] == nil {
			fail("fig16: no record for %s %s%s on %s", sp.Kernel.Name, sp.Sched, sp.BOWS.Desc(), sp.GPU.Name)
			return
		}
	}
	instrs := func(rec *metrics.RunRecord) float64 { return float64(rec.Counters["exec.thread_instrs"]) }
	var speedup, bowsInstr, idealInstr []float64
	for i := 0; i < len(recs); i += 3 {
		base, bows, ideal := recs[i], recs[i+1], recs[i+2]
		speedup = append(speedup, float64(base.Cycles)/float64(bows.Cycles))
		bowsInstr = append(bowsInstr, instrs(bows)/instrs(base))
		idealInstr = append(idealInstr, instrs(ideal)/instrs(base))
	}
	buckets := exp.Fig16Buckets
	if speedup[0] <= 1.5 {
		fail("fig16: BOWS speedup over GTO at %d buckets is %.3f, want > 1.5", buckets[0], speedup[0])
	}
	for i := range buckets {
		if i > 0 && buckets[i] <= 2048 && speedup[i] >= speedup[i-1] {
			fail("fig16: BOWS speedup %.3f at %d buckets does not fall below %.3f at %d",
				speedup[i], buckets[i], speedup[i-1], buckets[i-1])
		}
		if i > 0 && bowsInstr[i] <= bowsInstr[i-1] {
			fail("fig16: BOWS instruction ratio %.3f at %d buckets does not rise above %.3f at %d",
				bowsInstr[i], buckets[i], bowsInstr[i-1], buckets[i-1])
		}
		if bowsInstr[i] >= 1 {
			fail("fig16: BOWS executes %.3f of GTO's instructions at %d buckets, want < 1", bowsInstr[i], buckets[i])
		}
		if buckets[i] >= 2048 && speedup[i] < 1/1.05 {
			fail("fig16: BOWS speedup %.3f at %d buckets, want no more than 5%% slower than GTO", speedup[i], buckets[i])
		}
		if idealInstr[i] <= bowsInstr[i] {
			fail("fig16: ideal blocking executes %.3f of GTO's instructions at %d buckets, BOWS %.3f: want more",
				idealInstr[i], buckets[i], bowsInstr[i])
		}
	}
	// The excess narrows overall (0.091 to 0.022); 256 and 512 buckets
	// differ only in the fourth decimal, so no step is pinned.
	last := len(buckets) - 1
	if idealInstr[last]-bowsInstr[last] >= idealInstr[0]-bowsInstr[0] {
		fail("fig16: ideal blocking's instruction excess over BOWS does not narrow from %d to %d buckets", buckets[0], buckets[last])
	}
}

// finishedSpeedup returns, per scheduler, the gmean BOWS speedup of a
// Fig. 9/15 section over the kernels whose baseline and BOWS runs both
// finished: a watchdog-aborted baseline's time is a floor, so its
// speedup is only a lower bound.
func finishedSpeedup(b *exp.BarsSection) map[string]float64 {
	out := map[string]float64{}
	for i := 0; i+1 < len(b.Columns); i += 2 {
		var speedups []float64
		for _, k := range b.Kernels {
			if base, with := b.Time[k][i], b.Time[k][i+1]; !base.LowerBound && !with.LowerBound {
				speedups = append(speedups, base.Value/with.Value)
			}
		}
		out[b.Columns[i]] = stats.Gmean(speedups)
	}
	return out
}

// TestPaperClaims asserts claims over testdata/full.json, then checks
// that they can fail: a 50% slower Fig. 9 CAWA+BOWS run must trip the
// paper-gap bound, a 50% slower Fig. 16 GTO+BOWS run at 128 buckets a
// Fig. 16 claim, and a 50% slower Fig. 15 HT LRR+BOWS run Pascal's
// finished-pair order.
func TestPaperClaims(t *testing.T) {
	m, err := metrics.ReadFile("testdata/full.json")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range claims(r) {
		t.Error(v)
	}

	fig16BOWS := exp.VariantHash(exp.Fig16Specs(exp.Cfg{})[1])
	for _, mut := range []struct {
		name string
		pick func(rec metrics.RunRecord) bool
		trip string // a substring of the claim it must violate
	}{
		{"fig9 CAWA+BOWS", func(rec metrics.RunRecord) bool {
			return rec.Exp == "fig9" && rec.Sched == "CAWA" && rec.BOWS != "off"
		}, "paper speedup gap"},
		{"fig16 GTO+BOWS at 128 buckets", func(rec metrics.RunRecord) bool {
			return rec.Exp == "fig16" && rec.Variant == fig16BOWS
		}, "fig16:"},
		{"fig15 HT LRR+BOWS", func(rec metrics.RunRecord) bool {
			return rec.Exp == "fig15" && rec.Kernel == "HT" && rec.Sched == "LRR" && rec.BOWS != "off"
		}, "fig15 finished pairs: BOWS speedup over LRR"},
	} {
		mutated := *m
		mutated.Runs = slices.Clone(m.Runs)
		i := slices.IndexFunc(mutated.Runs, mut.pick)
		if i < 0 {
			t.Fatalf("full.json has no %s run", mut.name)
		}
		mutated.Runs[i].Cycles = mutated.Runs[i].Cycles * 3 / 2
		r, err = Build(&mutated)
		if err != nil {
			t.Fatal(err)
		}
		bad := claims(r)
		if !slices.ContainsFunc(bad, func(v string) bool { return strings.Contains(v, mut.trip) }) {
			t.Errorf("%s at 1.5x its cycles violates no %q claim: %v", mutated.Runs[i].Key(), mut.trip, bad)
		}
		t.Logf("a 50%% slower %s trips: %v", mutated.Runs[i].Key(), bad)
	}
}

// coefNames names energy.Coefficients' fields in boxVertex's bit order.
var coefNames = []string{"Issue", "LaneOp", "RF", "L1", "L2", "DRAM", "Atomic", "Idle", "Sched"}

// boxVertex returns vertex v of the box [c/span, span·c]: coefficient j
// at span·c when bit j of v is set, at c/span otherwise.
func boxVertex(c energy.Coefficients, span float64, v int) energy.Coefficients {
	for j, p := range []*float64{&c.IssuePJ, &c.LaneOpPJ, &c.RFAccessPJ, &c.L1PJ, &c.L2PJ,
		&c.DRAMPJ, &c.AtomicPJ, &c.IdleWarpPJ, &c.SchedulerPJ} {
		if v>>j&1 == 1 {
			*p *= span
		} else {
			*p /= span
		}
	}
	return c
}

// energyPair is one kernel's baseline and BOWS runs under one scheduler.
type energyPair struct {
	kernel, sched string
	base, bows    exp.Run
}

// worstSaving returns the smallest E_base / E_BOWS over the box's 512
// vertices and the vertex attaining it. Energy is linear in the
// coefficients, so the ratio is linear-fractional in them and its
// minimum over the box lies at a vertex. A watchdog-aborted baseline's
// partial energy is a floor, so its saving stays a sound lower bound.
func (p energyPair) worstSaving(c energy.Coefficients, span float64) (float64, int) {
	worst, at := math.Inf(1), 0
	for v := 0; v < 1<<len(coefNames); v++ {
		cv := boxVertex(c, span, v)
		if s := energy.Compute(cv, p.base.Stats).Total() / energy.Compute(cv, p.bows.Stats).Total(); s < worst {
			worst, at = s, v
		}
	}
	return worst, at
}

// energyPairs returns a Fig. 9/15 sweep's (kernel, scheduler) pairs from
// the set, and the nominal coefficients of its machine.
func energyPairs(s *Set, tag string) ([]energyPair, energy.Coefficients, error) {
	var pairs []energyPair
	_, err := derive(s, tag, exp.BarsLayout(), func(kernels []string, cols []exp.Column, runs [][]exp.Run) bool {
		for ki, k := range kernels {
			for i := 0; i+1 < len(cols); i += 2 {
				pairs = append(pairs, energyPair{k, cols[i].Label, runs[ki][i], runs[ki][i+1]})
			}
		}
		return true
	})
	if err != nil {
		return nil, energy.Coefficients{}, err
	}
	if len(pairs) == 0 {
		return nil, energy.Coefficients{}, fmt.Errorf("%s has no runs", tag)
	}
	return pairs, energy.ByConfigName(pairs[0].base.GPU), nil
}

// boxBound returns, per scheduler, the gmean over the kept pairs of each
// pair's worst saving in the box [c/span, span·c]: a lower bound on the
// gmean saving under any coefficient set in the box.
func boxBound(pairs []energyPair, c energy.Coefficients, span float64, keep func(energyPair) bool) map[string]float64 {
	worst := map[string][]float64{}
	for _, p := range pairs {
		if keep(p) {
			s, _ := p.worstSaving(c, span)
			worst[p.sched] = append(worst[p.sched], s)
		}
	}
	out := map[string]float64{}
	for sched, ws := range worst {
		out[sched] = stats.Gmean(ws)
	}
	return out
}

// maxSpan is the widest box breakSpan searches.
const maxSpan = 1000

// breakSpan returns the span at which f, falling as the span grows,
// reaches 1, bisected on a log scale over [1, maxSpan]: 1 if f(1) <= 1,
// maxSpan if f stays above 1 there.
func breakSpan(f func(span float64) float64) float64 {
	if f(maxSpan) > 1 {
		return maxSpan
	}
	lo, hi := 1.0, float64(maxSpan)
	for i := 0; i < 20; i++ {
		mid := math.Sqrt(lo * hi)
		if f(mid) > 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestEnergyBox ties the energy-box bound to the report: at span 1 the
// box is the nominal coefficient set and the bound is the section's
// EnergySaving. It logs the numbers EXPERIMENTS.md tabulates: per
// machine and baseline, the largest span at which the bound stays above
// 1 (for Pascal also without its watchdog-aborted cells), and per kernel
// the smallest span at which any one of its six savings reaches 1, and
// its worst saving in the ×/÷4 box with the vertex that attains it.
func TestEnergyBox(t *testing.T) {
	if n := reflect.TypeOf(energy.Coefficients{}).NumField(); n != len(coefNames) {
		t.Fatalf("energy.Coefficients has %d fields, the box %d", n, len(coefNames))
	}
	m, err := metrics.ReadFile("testdata/full.json")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	all := func(energyPair) bool { return true }
	finished := func(p energyPair) bool { return !p.base.LowerBound && !p.bows.LowerBound }
	type kernelWorst struct {
		span, worst     float64
		spanAt, worstAt string
		nominal         float64
		vertex          int
	}
	kernels := map[string]*kernelWorst{}
	for _, b := range []*exp.BarsSection{r.Fig9, r.Fig15} {
		pairs, c, err := energyPairs(r.Set(), b.Exp)
		if err != nil {
			t.Fatal(err)
		}
		nominal := boxBound(pairs, c, 1, all)
		atBox := boxBound(pairs, c, energyBoxSpan, all)
		atBoxFinished := boxBound(pairs, c, energyBoxSpan, finished)
		for _, sched := range []string{"LRR", "GTO", "CAWA"} {
			if got, want := nominal[sched], b.EnergySaving[sched]; math.Abs(got-want) > 1e-9*want {
				t.Errorf("%s %s: box bound at span 1 is %.6f, the section's saving %.6f", b.Exp, sched, got, want)
			}
			span := func(keep func(energyPair) bool) float64 {
				return breakSpan(func(s float64) float64 { return boxBound(pairs, c, s, keep)[sched] })
			}
			t.Logf("%s %s: nominal %.3f, box x/%d %.3f (finished cells %.3f), bound > 1 up to span %.2f (finished cells %.2f)",
				b.Exp, sched, nominal[sched], energyBoxSpan, atBox[sched], atBoxFinished[sched], span(all), span(finished))
		}
		for _, p := range pairs {
			kw := kernels[p.kernel]
			if kw == nil {
				kw = &kernelWorst{span: math.Inf(1), worst: math.Inf(1)}
				kernels[p.kernel] = kw
			}
			where := b.Exp + " " + p.sched
			if s := breakSpan(func(s float64) float64 { w, _ := p.worstSaving(c, s); return w }); s < kw.span {
				kw.span, kw.spanAt = s, where
				kw.nominal, _ = p.worstSaving(c, 1)
			}
			if w, v := p.worstSaving(c, energyBoxSpan); w < kw.worst {
				kw.worst, kw.worstAt, kw.vertex = w, where, v
			}
		}
	}
	for _, k := range r.Fig9.Kernels {
		kw := kernels[k]
		var high []string
		for j, name := range coefNames {
			if kw.vertex>>j&1 == 1 {
				high = append(high, name)
			}
		}
		t.Logf("%s: first saving reaches 1 at span %.2f of %d (%s, nominal %.3f); worst in the x/%d box %.3f (%s) with %v high",
			k, kw.span, maxSpan, kw.spanAt, kw.nominal, energyBoxSpan, kw.worst, kw.worstAt, high)
	}
}

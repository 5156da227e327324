package exp

import (
	"errors"
	"fmt"

	"warpsched/internal/config"
	"warpsched/internal/kernels"
	"warpsched/internal/stats"
)

// The figure families internal/report also publishes (fig9/fig15,
// delaysweep, fig14, table1, ablation) are one pipeline each:
//
//	layout → lookup → derive → render
//
// A layout is a []Column; a lookup fills the kernels × columns matrix of
// Runs (the harness by submission index — sweep below — and
// internal/report by Set.FindDDOS over a manifest); a Derive* function turns
// the matrix into the family's section; the section's Tables method lays
// it out once, as the []Table its String renders as stdout text and
// internal/report renders as Markdown (beside its SVG figures). Every
// published number is therefore computed, and every published row built,
// once.

// Column is one arm of a sweep: a display label and the policy half of
// the Spec it runs. GPU and Kernel are left zero; the lookup fills them in
// per run (sweep) or joins manifest records on the scheduler name and the
// BOWS and detector descriptors instead (internal/report).
type Column struct {
	// Label is the column heading or row label, e.g. "GTO+BOWS".
	Label string
	Spec
}

func labels(cols []Column) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Label
	}
	return out
}

// Run is the per-run input of every derivation, built only from a
// manifest record (RunOfRecord): the sweep's own records (simulated or
// journal-replayed) and internal/report's manifests supply it alike.
type Run struct {
	// GPU is the machine configuration name; it selects the energy model.
	GPU string
	// Cycles is the execution time.
	Cycles int64
	// LowerBound marks a watchdog-aborted run: its counters are partial,
	// so every quantity derived from it is a floor.
	LowerBound bool
	// Stats holds the run's machine-total event counts.
	Stats *stats.Sim
	// Detection is the spin detector's quality summary.
	Detection Detection
}

// Detection is the part of core.DetectionMetrics a manifest record
// carries: the raw confirmation counts (the "ddos.*" counters) and the
// mean detection phase ratio per class (the "ddos_*_dpr" derived values).
type Detection struct {
	TrueSeen, TrueDetected   int64
	FalseSeen, FalseDetected int64
	TrueDPR, FalseDPR        float64
}

// runs executes specs and returns each one's derivation input, in
// submission order. The first failed run in submission order is the
// error; with lowerBounds set, a watchdog abort (an error beside
// counters) is kept as a lower bound instead — the livelocking baselines
// of fig9/fig15.
func (c Cfg) runs(specs []Spec, lowerBounds bool) ([]Run, error) {
	recs := c.runAll(specs)
	out := make([]Run, len(recs))
	for i := range recs {
		rec := &recs[i]
		if rec.Err != "" && (rec.Cycles == 0 || !lowerBounds) {
			return nil, errors.New(rec.Err)
		}
		var err error
		if out[i], err = RunOfRecord(rec); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweep is the harness's lookup: it runs every suite kernel under every
// column on gpu and shapes the runs, by submission index, into the
// kernels × columns matrix the derivations consume (see runs for errors
// and lowerBounds).
func (c Cfg) sweep(gpu config.GPU, suite []*kernels.Kernel, cols []Column, lowerBounds bool) (names []string, matrix [][]Run, err error) {
	var specs []Spec
	for _, k := range suite {
		names = append(names, k.Name)
		for _, col := range cols {
			sp := col.Spec
			sp.GPU, sp.Kernel = gpu, k
			specs = append(specs, sp)
		}
	}
	runs, err := c.runs(specs, lowerBounds)
	if err != nil {
		return nil, nil, err
	}
	n := len(cols)
	matrix = make([][]Run, len(suite))
	for ki := range matrix {
		matrix[ki] = runs[ki*n : (ki+1)*n : (ki+1)*n]
	}
	return names, matrix, nil
}

// Bar is one derived data point. Runs aborted by the simulation watchdog
// still carry their counters, so their values are rendered as lower
// bounds ("≥") instead of being dropped — the paper's DS-on-LRR case
// livelocks by design.
type Bar struct {
	// Value is the derived quantity (normalized time, energy, ...).
	Value float64
	// LowerBound marks a watchdog-aborted run: Value is a floor, not
	// the converged result.
	LowerBound bool
}

// lowerBoundMark prefixes a rendered lower bound.
const lowerBoundMark = "≥"

// String formats the value to two decimals, marking lower bounds "≥".
func (b Bar) String() string {
	if b.LowerBound {
		return lowerBoundMark + f2(b.Value)
	}
	return f2(b.Value)
}

// normalize evaluates metric on every run, divides each kernel's row by
// its column-0 value (the sweep's baseline) and returns the rows keyed by
// kernel with the per-column geometric means.
func normalize(kernels []string, ncols int, runs [][]Run, metric func(Run) float64) (map[string][]Bar, []float64) {
	rows := make(map[string][]Bar, len(kernels))
	byCol := make([][]float64, ncols)
	for ki, k := range kernels {
		row := make([]Bar, ncols)
		for ci, r := range runs[ki] {
			row[ci] = Bar{Value: metric(r), LowerBound: r.LowerBound}
		}
		base := row[0].Value
		if base == 0 {
			base = 1
		}
		for ci := range row {
			row[ci].Value /= base
			byCol[ci] = append(byCol[ci], row[ci].Value)
		}
		rows[k] = row
	}
	gmeans := make([]float64, ncols)
	for ci, vs := range byCol {
		gmeans[ci] = stats.Gmean(vs)
	}
	return rows, gmeans
}

func cycles(r Run) float64 { return float64(r.Cycles) }

// ratio returns num/den, or 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// barTable is a kernels × columns block of bars with a closing gmean
// row.
func barTable(title string, kernels, cols []string, data map[string][]Bar, gmeans []float64) Table {
	t := Table{Title: title, Header: append([]string{"kernel"}, cols...), Summary: []string{"gmean"}}
	for _, k := range kernels {
		row := []string{k}
		for _, b := range data[k] {
			row = append(row, b.String())
		}
		t.add(row...)
	}
	for _, v := range gmeans {
		t.Summary = append(t.Summary, f2(v))
	}
	return t
}

// pctTable is a kernels × columns block of fractions as percentages.
func pctTable(title string, kernels, cols []string, data map[string][]float64) Table {
	t := Table{Title: title, Header: append([]string{"kernel"}, cols...)}
	for _, k := range kernels {
		row := []string{k}
		for _, v := range data[k] {
			row = append(row, pct(v))
		}
		t.add(row...)
	}
	return t
}

// syncTable is the per-lane lock-acquire and wait-exit outcomes of
// Figures 2 and 12: one row per kernel and column under header, whose
// first two cells name the kernel and column and whose last is the
// total-attempts ratio to the kernel's column-0 run.
func syncTable(title string, header, kernels, cols []string, data map[string][]stats.SyncEvents) Table {
	t := Table{Title: title, Header: header}
	attempts := func(e stats.SyncEvents) float64 { return float64(e.LockAttempts() + e.WaitAttempts()) }
	for _, k := range kernels {
		base := attempts(data[k][0])
		if base == 0 {
			base = 1
		}
		for i, e := range data[k] {
			t.add(k, cols[i],
				fmt.Sprintf("%d", e.LockSuccess),
				fmt.Sprintf("%d", e.InterWarpFail),
				fmt.Sprintf("%d", e.IntraWarpFail),
				fmt.Sprintf("%d", e.WaitExitSuccess),
				fmt.Sprintf("%d", e.WaitExitFail),
				f2(attempts(e)/base))
		}
	}
	return t
}

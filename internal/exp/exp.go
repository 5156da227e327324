// Package exp is the reproduction harness: one experiment per table and
// figure of the paper's evaluation (Figures 1-3 and 9-16, Tables I-III),
// each returning a value whose String method renders a text table next to
// the paper's reported numbers. cmd/experiments and the benchmark
// (bench/) both drive this package.
//
// The families internal/report also publishes are split layout → lookup →
// derive → render (derive.go): the Derive* functions here are the only
// place their numbers are computed, from a per-run input (Run) built
// from a manifest record — the sweep's own or an archived manifest's —
// and each section's Tables method the only place its rows are built,
// as a []Table that its String prints and internal/report renders as
// Markdown (beside the SVG figures it draws from the section).
package exp

import (
	"fmt"
	"sort"
	"strings"

	"warpsched/internal/config"
	"warpsched/internal/kernels"
	"warpsched/internal/sim"
)

// Cfg scales the harness.
type Cfg struct {
	// SMs overrides the SM count (0 keeps the full Table II machine).
	// Experiments default to a scaled machine so a sweep finishes in
	// minutes; the scaling preserves per-SM structure and the
	// compute:memory balance (config.GPU.Scaled).
	SMs int
	// Quick selects the reduced kernel sizes (used by tests/benches).
	Quick bool
	// Jobs bounds the worker pool running an experiment's independent
	// simulations concurrently (cmd/experiments -j). 0 means GOMAXPROCS;
	// 1 runs strictly serially. Results and rendered tables are
	// byte-identical for every value (see runAll).
	Jobs int
	// Progress, when non-nil, receives one line per completed run. It is
	// never called from more than one goroutine at a time.
	Progress func(string)
	// Collect, when non-nil, receives one manifest record per completed
	// simulation (see NewCollector). A Collector is safe under Jobs > 1.
	Collect *Collector
	// Exp tags collected records with the experiment that submitted them
	// (the registry key, e.g. "fig9"); cmd/experiments sets it per
	// experiment so internal/report can group a manifest's runs.
	Exp string
	// Check enables the engine's runtime invariant checker and early hang
	// aborts for every run (cmd/experiments -check). Checked runs simulate
	// cycle-identically to unchecked ones — they only fail faster and with
	// a diagnosis when something is wrong.
	Check bool
	// Journal, when non-nil, makes the sweep crash-tolerant and resumable
	// (cmd/experiments -resume): specs whose records are already journaled
	// are replayed instead of re-simulated, and freshly finished specs are
	// recorded (durably, when the journal has a directory), so an
	// interrupted sweep picks up where it died and renders byte-identical
	// tables.
	Journal *Journal
	// NoFastForward disables the event-driven clock and ticks every cycle
	// (cmd/experiments -no-ff; see sim.Options.NoFastForward). Results
	// are cycle-identical either way; the flag exists for A/B timing and
	// for auditing the fast-forward path itself.
	NoFastForward bool
}

func (c Cfg) note(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(fmt.Sprintf(format, args...))
	}
}

func (c Cfg) fermi() config.GPU {
	g := config.GTX480()
	if c.SMs > 0 {
		g = g.Scaled(c.SMs)
	} else if c.Quick {
		g = g.Scaled(2)
	} else {
		g = g.Scaled(4)
	}
	return g
}

func (c Cfg) pascal() config.GPU {
	g := config.GTX1080Ti()
	switch {
	case c.SMs > 0:
		g = g.Scaled(c.SMs)
	case c.Quick:
		g = g.Scaled(2)
	default:
		g = g.Scaled(7) // same 15:28 ratio as the 4-SM Fermi scale
	}
	return g
}

func (c Cfg) syncSuite() []*kernels.Kernel {
	if c.Quick {
		return kernels.QuickSyncSuite()
	}
	return kernels.SyncSuite()
}

func (c Cfg) syncFreeSuite() []*kernels.Kernel {
	if c.Quick {
		return kernels.QuickSyncFreeSuite()
	}
	return kernels.SyncFreeSuite()
}

// Options is the one Spec→sim.Options conversion: the spec's machine and
// policies (with the watchdog budget of Spec.Normalized) plus the
// harness's execution strategy. Experiments cap runaway configurations (a
// pathologically scheduled baseline can approach livelock, e.g. DS on the
// oversubscribed Pascal — an effect the paper itself reports in §VI-D)
// at expMaxCycles; a spec carrying its own MaxCycles replaces that clamp —
// the submitter (internal/server admission control, cmd/warpsim) owns
// the bound.
func (c Cfg) Options(sp Spec) sim.Options {
	return sim.Options{GPU: sp.Normalized().GPU, Sched: sp.Sched, BOWS: sp.BOWS,
		DDOS: sp.DDOS, Detector: sp.Detector, TAGE: sp.TAGE, WaSP: sp.WaSP,
		Check: c.Check, NoFastForward: c.NoFastForward, Progress: sp.Progress}
}

// run simulates one kernel and verifies its output. On a watchdog abort
// the partial result is returned alongside the error so sweeps can record
// "at least this slow" instead of aborting.
func (c Cfg) run(sp *Spec) (*sim.Result, error) {
	eng, err := sim.New(c.Options(*sp), sp.Kernel.Launch)
	if err != nil {
		return nil, err
	}
	res, err := eng.Run()
	if err != nil {
		return res, err // res is the partial state on a watchdog abort
	}
	if sp.Kernel.Verify != nil {
		if err := sp.Kernel.Verify(res.Memory); err != nil {
			return nil, fmt.Errorf("%s under %s: %w", sp.Kernel.Name, sp.Sched, err)
		}
	}
	return res, nil
}

// expMaxCycles bounds one experiment run; configurations that exceed it
// are reported as lower bounds.
const expMaxCycles = 10_000_000

func bowsOff() config.BOWS { return config.BOWS{Mode: config.BOWSOff} }

// Experiment is a registry entry.
type Experiment struct {
	Name  string // registry key, e.g. "fig9"
	Title string
	Run   func(Cfg) (fmt.Stringer, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Fig. 1: fine-grained synchronization on current GPUs (hashtable motivation)", func(c Cfg) (fmt.Stringer, error) { return Fig1(c) }},
		{"fig2", "Fig. 2: synchronization status distribution under LRR/GTO/CAWA", func(c Cfg) (fmt.Stringer, error) { return Fig2(c) }},
		{"fig3", "Fig. 3: software back-off delay on GPUs", func(c Cfg) (fmt.Stringer, error) { return Fig3(c) }},
		{"table1", "Table I: DDOS sensitivity to design parameters", func(c Cfg) (fmt.Stringer, error) { return Table1(c) }},
		{"fig9", "Fig. 9: performance and energy savings on GTX480 (Fermi)", func(c Cfg) (fmt.Stringer, error) { return ExecEnergy(c, c.fermi(), "fig9") }},
		{"delaysweep", "Figs. 10-13: back-off delay limit sweep (exec time, warp distribution, lock status, overheads)", func(c Cfg) (fmt.Stringer, error) { return DelaySweep(c) }},
		{"fig14", "Fig. 14: overheads due to detection errors (MODULO hashing)", func(c Cfg) (fmt.Stringer, error) { return Fig14(c) }},
		{"fig15", "Fig. 15: performance and energy savings on Pascal (GTX1080Ti)", func(c Cfg) (fmt.Stringer, error) { return ExecEnergy(c, c.pascal(), "fig15") }},
		{"fig16", "Fig. 16: sensitivity to contention (hashtable buckets sweep)", func(c Cfg) (fmt.Stringer, error) { return Fig16(c) }},
		{"ablation", "Ablation: BOWS component contributions (deprioritize / fixed delay / adaptive / static annotations)", func(c Cfg) (fmt.Stringer, error) { return Ablation(c) }},
		{"table2", "Table II: simulated configurations", func(c Cfg) (fmt.Stringer, error) { return Table2(c) }},
		{"table3", "Table III: DDOS and BOWS implementation costs", func(c Cfg) (fmt.Stringer, error) { return Table3(c) }},
	}
}

// ByName resolves a registry key.
func ByName(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	var names []string
	for _, e := range All() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (have: %s)", name, strings.Join(names, ", "))
}

// Table is one titled table of the harness's output. The sections
// internal/report also publishes (BarsSection, DelaySection,
// Fig14Section, Table1Section, AblationSection) state their content once,
// as the ordered []Table their Tables method builds: their String
// renders it as fixed-width text and internal/report as Markdown. A
// cell's leading lowerBoundMark hangs in the two-space gutter before its
// column, so a marked cell neither widens the column nor shifts the
// digits under it.
type Table struct {
	// Title heads the table; "" prints none.
	Title string
	// Header names the columns; every row of Rows follows it.
	Header []string
	Rows   [][]string
	// Summary is an optional closing row (a gmean), bold in Markdown.
	Summary []string
	// Note is the prose under the table, one string per printed line.
	Note []string
	// Figure is the SVG base name the Markdown embeds under the table;
	// the text rendering has no figures.
	Figure string
}

func (t *Table) add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as fixed-width text: the title and a blank
// line, the header, a dashed rule, the rows and summary, then the note.
func (t *Table) String() string {
	rows := t.Rows
	if t.Summary != nil {
		rows = append(rows[:len(rows):len(rows)], t.Summary)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if w := len(strings.TrimPrefix(c, lowerBoundMark)); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			rest, marked := strings.CutPrefix(c, lowerBoundMark)
			switch {
			case i > 0 && marked:
				sb.WriteString(" " + lowerBoundMark)
				c = rest
			case i > 0:
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	for _, n := range t.Note {
		sb.WriteString(n + "\n")
	}
	return sb.String()
}

// text renders a section's tables as the harness prints it: one after
// another, a blank line between.
func text(tables []Table) string {
	parts := make([]string, len(tables))
	for i := range tables {
		parts[i] = tables[i].String()
	}
	return strings.Join(parts, "\n")
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

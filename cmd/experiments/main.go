// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp fig9          # one experiment
//	experiments -exp all           # everything, paper order
//	experiments -exp all -quick    # reduced inputs (fast smoke pass)
//	experiments -list              # registry
//
// Each experiment prints a text table followed by the paper's reported
// numbers for comparison; EXPERIMENTS.md archives a full run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"warpsched/internal/exp"
	"warpsched/internal/report"
)

func main() {
	var (
		name      = flag.String("exp", "all", "experiment name or 'all'")
		quick     = flag.Bool("quick", false, "use reduced kernel sizes")
		sms       = flag.Int("sms", 0, "override simulated SM count (0 = experiment default)")
		jobs      = flag.Int("j", 0, "simulations to run concurrently (0 = GOMAXPROCS, 1 = serial); output is identical for every value")
		verbose   = flag.Bool("v", false, "print per-run progress; a run replayed from the journal is marked so, and a replayed watchdog abort reads 'watchdog at N cycles' without the hang diagnosis")
		list      = flag.Bool("list", false, "list experiments and exit")
		statsJSON = flag.String("stats-json", "", "write a machine-readable run manifest (per-simulation counters) to this file")
		check     = flag.Bool("check", false, "enable runtime invariant checking and early hang aborts in every simulation")
		resume    = flag.String("resume", "", "crash-tolerant run journal: a directory (created if missing) of checksummed, fsynced entries, one per finished run; runs found in it are replayed instead of re-simulated (repeats inside one invocation are replayed with or without it)")
		reportDir = flag.String("report", "", "after the sweep, render the reproduction report (REPRODUCTION.md + SVG figures) from the collected manifest into this directory")
		noFF      = flag.Bool("no-ff", false, "disable event-driven fast-forward and tick every cycle; output is identical either way")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-11s %s\n", e.Name, e.Title)
		}
		return
	}

	cfg := exp.Cfg{SMs: *sms, Quick: *quick, Jobs: *jobs, Check: *check, NoFastForward: *noFF}
	if *verbose {
		cfg.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  ..", line) }
	}
	// The journal is always attached: a run another experiment of this
	// invocation already made is replayed, not simulated again. -resume
	// only decides whether it is also on disk.
	journal, err := exp.OpenJournal(*resume)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer journal.Close()
	cfg.Journal = journal
	loaded := journal.Len()
	damaged := journal.Dropped()
	if damaged > 0 {
		fmt.Fprintf(os.Stderr, "experiments: journal %s: %d of %d files damaged or orphaned, moved to %s; their runs simulate again, %d entries replay\n",
			*resume, damaged, loaded+damaged, filepath.Join(*resume, "quarantine"), loaded)
	}

	var col *exp.Collector
	if *statsJSON != "" || *reportDir != "" {
		// The config map deliberately omits -j and -no-ff (the manifest,
		// and its config hash, is identical for every worker count and
		// for either clock implementation) and the experiment selection
		// (records carry their experiment tag, so same-scale manifests
		// from different -exp invocations share a config hash and can be
		// joined by cmd/warpreport).
		col = exp.NewCollector("experiments", map[string]any{
			"quick": *quick, "sms": *sms,
		})
		cfg.Collect = col
	}

	var todo []exp.Experiment
	if *name == "all" {
		todo = exp.All()
	} else {
		e, err := exp.ByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		todo = []exp.Experiment{e}
	}

	start := time.Now()
	for _, e := range todo {
		fmt.Printf("==== %s: %s ====\n", e.Name, e.Title)
		t0 := time.Now()
		cfg.Exp = e.Name
		res, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Println(res)
		fmt.Printf("(%s completed in %v)\n\n", e.Name, time.Since(t0).Round(time.Millisecond))
	}

	// A run simulated in place of an entry quarantined since the open adds
	// nothing to Len: its entry was counted in loaded, then moved away and
	// written again.
	simulated := journal.Len() - loaded + journal.Dropped() - damaged
	fmt.Fprintf(os.Stderr, "experiments: %d distinct runs simulated, %d repeats replayed", simulated, journal.Hits())
	if *resume != "" {
		fmt.Fprintf(os.Stderr, "; journal %s holds %d", *resume, journal.Len())
	}
	fmt.Fprintln(os.Stderr)

	if col != nil {
		m := col.Manifest()
		m.WallMS = float64(time.Since(start).Microseconds()) / 1e3
		if *statsJSON != "" {
			if err := m.WriteFile(*statsJSON); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "experiments: wrote manifest (%d runs) to %s\n", len(m.Runs), *statsJSON)
		}
		if *reportDir != "" {
			rep, err := report.Build(m)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			paths, err := rep.Write(filepath.Join(*reportDir, "REPRODUCTION.md"), filepath.Join(*reportDir, "figures"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "experiments: wrote report (%d files) under %s\n", len(paths), *reportDir)
		}
	}
}

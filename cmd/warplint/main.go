// Command warplint runs the internal/analysis static analyzer over kernel
// programs: the registered benchmark suites, a single registered kernel,
// or assembly text files in the syntax of isa.Parse.
//
// Usage:
//
//	warplint -all                 # analyze every registered kernel (full + quick suites)
//	warplint -kernel HT           # one registered kernel by name
//	warplint prog.s other.s       # parse and analyze text programs
//	warplint -all -json           # machine-readable findings (schema 2)
//	warplint -all -v              # also list clean programs and suppressions
//	warplint -race=false prog.s   # intra-warp passes only
//
// Beyond the structural and dataflow passes, warplint runs the inter-warp
// race analyzer (internal/analysis/race) by default: data races between
// barriers, divergent barrier phasing, and lockset/lock-order defects.
// Registered kernels are analyzed at their launch geometry; text programs
// use -ctas/-threads.
//
// The exit status is 0 when every analyzed program is clean (suppressed
// findings do not fail the run), 1 when any finding is reported, and 2 on
// usage or parse errors. Findings can be suppressed per instruction with
// the `!nolint` annotation (isa.AnnNoLint), optionally scoped to classes
// or categories (`!nolint race,lockorder`); suppressions are visible with
// -v and in the JSON output, never silent.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"warpsched/internal/analysis"
	"warpsched/internal/analysis/race"
	"warpsched/internal/isa"
	"warpsched/internal/kernels"
)

// jsonOutput is the machine-readable envelope. Schema 2 added the top-
// level schema/reports wrapper, the per-finding `class` field and the
// inter-warp race categories; schema 1 was a bare report array.
type jsonOutput struct {
	Schema  int                `json:"schema"`
	Reports []*analysis.Report `json:"reports"`
}

const jsonSchema = 2

func main() {
	var (
		all      = flag.Bool("all", false, "analyze every registered kernel (full and quick suites)")
		kernel   = flag.String("kernel", "", "analyze one registered kernel by name")
		jsonOut  = flag.Bool("json", false, "emit findings as JSON (schema 2)")
		verbose  = flag.Bool("v", false, "list clean programs and suppressed findings")
		withRace = flag.Bool("race", true, "run the inter-warp race/lock/barrier analyzer")
		ctas     = flag.Int("ctas", 0, "launch geometry for text programs: grid CTAs (0 = analyzer default)")
		threads  = flag.Int("threads", 0, "launch geometry for text programs: threads per CTA (0 = analyzer default)")
	)
	flag.Parse()

	type target struct {
		label         string
		prog          *isa.Program
		ctas, threads int32
	}
	var targets []target

	switch {
	case *all:
		for _, s := range []struct {
			tag   string
			suite []*kernels.Kernel
		}{
			{"", kernels.SyncSuite()},
			{"", kernels.SyncFreeSuite()},
			{" (quick)", kernels.QuickSyncSuite()},
			{" (quick)", kernels.QuickSyncFreeSuite()},
		} {
			for _, k := range s.suite {
				targets = append(targets, target{k.Name + s.tag, k.Launch.Prog,
					int32(k.Launch.GridCTAs), int32(k.Launch.CTAThreads)})
			}
		}
	case *kernel != "":
		k, err := kernels.ByName(*kernel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "warplint:", err)
			os.Exit(2)
		}
		targets = append(targets, target{k.Name, k.Launch.Prog,
			int32(k.Launch.GridCTAs), int32(k.Launch.CTAThreads)})
	case flag.NArg() > 0:
		for _, path := range flag.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "warplint:", err)
				os.Exit(2)
			}
			p, err := isa.Parse(path, string(src))
			if err != nil {
				fmt.Fprintln(os.Stderr, "warplint:", err)
				os.Exit(2)
			}
			targets = append(targets, target{path, p, int32(*ctas), int32(*threads)})
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	var reports []*analysis.Report
	failed := false
	for _, t := range targets {
		rep := analysis.Analyze(t.prog)
		if *withRace {
			rrep := race.Analyze(t.prog, race.Options{
				GridCTAs: t.ctas, CTAThreads: t.threads,
			})
			mergeReports(rep, rrep)
		}
		reports = append(reports, rep)
		if !rep.Clean() {
			failed = true
		}
		if *jsonOut {
			continue
		}
		for _, f := range rep.Findings {
			fmt.Printf("%s:%d: [%s] %s\n", t.label, f.PC, f.Category, f.Message)
			if f.PC >= 0 && f.PC < t.prog.Len() {
				fmt.Printf("    %04d: %s\n", f.PC, isa.Disasm(t.prog.At(f.PC)))
			}
		}
		if *verbose {
			for _, f := range rep.Suppressed {
				fmt.Printf("%s:%d: suppressed [%s] %s\n", t.label, f.PC, f.Category, f.Message)
			}
			if rep.Clean() {
				fmt.Printf("%s: ok (%d instructions, %d suppressed)\n",
					t.label, t.prog.Len(), len(rep.Suppressed))
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOutput{Schema: jsonSchema, Reports: reports}); err != nil {
			fmt.Fprintln(os.Stderr, "warplint:", err)
			os.Exit(2)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// mergeReports folds the race analyzer's report into the core one,
// keeping findings sorted by PC then category. A structurally invalid
// program makes both passes emit the same CatInvalid finding; the
// duplicate is dropped.
func mergeReports(dst, src *analysis.Report) {
	add := func(to []analysis.Finding, fs []analysis.Finding) []analysis.Finding {
		for _, f := range fs {
			if f.Category == analysis.CatInvalid && hasCat(to, analysis.CatInvalid) {
				continue
			}
			to = append(to, f)
		}
		sort.Slice(to, func(i, j int) bool {
			if to[i].PC != to[j].PC {
				return to[i].PC < to[j].PC
			}
			return to[i].Category < to[j].Category
		})
		return to
	}
	dst.Findings = add(dst.Findings, src.Findings)
	dst.Suppressed = add(dst.Suppressed, src.Suppressed)
}

func hasCat(fs []analysis.Finding, c analysis.Category) bool {
	for _, f := range fs {
		if f.Category == c {
			return true
		}
	}
	return false
}

// Command bench is the repository's benchmark: four named workloads over
// the simulator, its experiment harness and the warpsimd service, each
// measured from outside through the layers' public functions.
// BENCHMARK.json at the repository root declares the workloads and
// metrics; README.md in this directory defines them.
//
//	go run -C bench . -workload sync_sweep -seed 1 -seconds 25 -trace 0
//	go run -C bench .                # every workload, each in its own process
//	go run -C bench . -trace 1       # ... followed by its traced run
//	go run -C bench . -calibrate 10  # run-to-run spread against the bounds
//
// With -workload the last line of standard output is one JSON object:
// the end-to-end metrics with -trace 0, the per-layer metrics with
// -trace 1.
//
// Every workload is serial and runs on one core: one harness worker, one
// server worker, one client connection in a closed loop, GOMAXPROCS 1.
// On a shared host a second busy thread measures the neighbours: with two
// workers on two cores a one-core tenant stretched a sync_sweep pass by
// half while the serial issue_bound next to it moved by 1%, and a service
// slice whose client and server goroutines bounce between two cores
// varies by 15% from slice to slice against 3% on one. What more cores
// buy is the business of two probes, exp.parallel_efficiency and
// sim.shard2_speedup; the probes run on every core.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"warpsched/internal/metrics"
)

// pass is one timed repetition of a workload's fixed work.
type pass struct {
	wall   time.Duration
	lat    []time.Duration // one latency per operation
	traced bool
}

// run carries one workload execution: its arguments, what it measured
// and what it found wrong.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // smoke-test sizes; shape asserts are skipped
	root     string // repository root
	tmp      string // scratch directory under bench/out, removed at exit
	rec      *recorder

	deadline time.Time
	setups   []time.Duration
	passes   []pass
	rssMB    float64 // high-water mark after set-up and the first minPasses passes
	// attempted and failed count operations: engine runs, requests,
	// renders, and the checks made on their outputs.
	attempted, failed int
	problems          []string
	layer             map[string]float64 // per-layer values the workload derived
}

// fail records a correctness or shape violation.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workloadProcs is the GOMAXPROCS a workload runs under (package comment).
const workloadProcs = 1

// minPasses is the least number of timed passes a run makes, however
// short -seconds is. In a traced run half of them are traced. It is also
// where peak memory is read: after a fixed amount of work, so that a
// faster machine, which fits more passes into -seconds, does not read a
// larger number (warpsimd keeps every admitted job, so its memory grows
// with the requests served).
const minPasses = 4

// probeSeconds is what the layer probes of a traced run take; its passes
// end that much earlier, so that a traced run measures for -seconds too.
const probeSeconds = 10

// startClock begins the measuring phase.
func (r *run) startClock() {
	s := r.seconds
	if r.trace {
		s -= probeSeconds
	}
	r.deadline = time.Now().Add(time.Duration(s * float64(time.Second)))
}

// more reports whether another pass should run.
func (r *run) more() bool {
	return len(r.passes) < minPasses || time.Now().Before(r.deadline)
}

// passRecorder returns the recorder for the next pass, nil when it is an
// untraced one: a traced run alternates traced and untraced passes so that
// both see the same machine state and their ratio is the tracing overhead.
func (r *run) passRecorder() *recorder {
	if r.trace && len(r.passes)%2 == 1 {
		return r.rec
	}
	return nil
}

// percentile returns the pass's nearest-rank q-quantile operation latency
// in milliseconds.
func (p pass) percentile(q float64) float64 {
	lat := append([]time.Duration(nil), p.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return ms(percentile(lat, q))
}

// addPass records a finished pass and its operations.
func (r *run) addPass(p pass) {
	r.passes = append(r.passes, p)
	r.attempted += len(p.lat)
	if len(r.passes) == minPasses {
		r.rssMB = peakRSSMB()
	}
}

// walls returns the pass walls in seconds, traced or untraced ones.
func (r *run) walls(traced bool) []float64 {
	var out []float64
	for _, p := range r.passes {
		if p.traced == traced {
			out = append(out, secs(p.wall))
		}
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's output object, printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd derives the end-to-end metrics from the untraced passes.
func (r *run) endToEnd() map[string]metricValue {
	var wall, ops, p50, setup []float64
	for _, p := range r.passes {
		if p.traced {
			continue
		}
		wall = append(wall, secs(p.wall))
		ops = append(ops, float64(len(p.lat))/secs(p.wall))
		p50 = append(p50, p.percentile(0.50))
	}
	for _, s := range r.setups {
		setup = append(setup, secs(s))
	}
	return map[string]metricValue{
		"setup_s":     {best(setup), "s"},
		"wall_s":      {best(wall), "s"},
		"ops_per_s":   {bestRate(ops), "1/s"},
		"p50_ms":      {best(p50), "ms"},
		"peak_rss_mb": {r.rssMB, "MB"},
	}
}

// perLayer returns every per-layer metric: the workload-derived ones, the
// probe results, and 0 for a layer this workload never entered.
func (r *run) perLayer() map[string]metricValue {
	out := make(map[string]metricValue, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		v := r.layer[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metricValue{v, m.unit}
	}
	for name := range r.layer {
		if _, ok := out[name]; !ok {
			panic("bench: metric " + name + " is not declared in perLayerMetrics")
		}
	}
	return out
}

// repoRoot walks up from the working directory to the warpsched module.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module warpsched\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no warpsched module above the working directory")
		}
		dir = parent
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev returns the revision the numbers belong to: the one stamped into
// the binary, else (go run stamps none) the checkout's HEAD read from
// .git, else "unknown" (the driver's checkout is not a repository).
func gitRev(root string) string {
	if rev := metrics.GitRev(); rev != "" {
		return rev
	}
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(rev, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(root, ".git", ref))
		if err != nil {
			return ref // a packed ref: name it rather than parse packed-refs
		}
		rev = strings.TrimSpace(string(data))
	}
	return rev
}

// envLine is the machine and build the numbers were taken on.
func envLine(root string, seed int64) string {
	rev := gitRev(root)
	return fmt.Sprintf("seed=%d nproc=%d GOMAXPROCS=%d go=%s cpu=%q rev=%s",
		seed, runtime.NumCPU(), workloadProcs, runtime.Version(), cpuModel(), rev)
}

// execute runs one workload in this process and returns its result.
func execute(name string, seed int64, seconds float64, trace, tiny bool) (*run, result, error) {
	w, ok := workloadByName(name)
	if !ok {
		return nil, result{}, fmt.Errorf("bench: unknown workload %q (have: %s)", name, strings.Join(workloadNames(), ", "))
	}
	root, err := repoRoot()
	if err != nil {
		return nil, result{}, err
	}
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, result{}, err
	}
	tmp, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return nil, result{}, err
	}
	defer os.RemoveAll(tmp)
	r := &run{workload: name, seed: seed, seconds: seconds, trace: trace, tiny: tiny,
		root: root, tmp: tmp, layer: map[string]float64{}}
	if trace {
		r.rec = newRecorder()
	}
	procs := runtime.GOMAXPROCS(workloadProcs)
	err = w.run(r)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, result{}, fmt.Errorf("bench: %s: %w", name, err)
	}
	var res result
	if trace {
		runProbes(r)
		r.traceSummary()
		if err := r.rec.writeChromeTrace(filepath.Join(out, name+".trace.json")); err != nil {
			return nil, result{}, err
		}
		res.Metrics = r.perLayer()
	} else {
		res.Metrics = r.endToEnd()
	}
	res.Attempted, res.Failed, res.Correct = r.attempted, r.failed, r.failed == 0
	return r, res, nil
}

// traceSummary turns the recorded spans into the self-time shares and
// the tracing overhead.
func (r *run) traceSummary() {
	self, roots := r.rec.selfTimes()
	for name, d := range self {
		if key, ok := selfFracMetric[name]; ok {
			r.layer[key] += ratio(secs(d), secs(roots))
		}
	}
	r.layer["bench.trace_overhead_frac"] = ratio(best(r.walls(true)), best(r.walls(false))) - 1
	r.layer["bench.failed_frac"] = ratio(float64(r.failed), float64(r.attempted))
}

// printRun writes the human-readable part: environment, every metric by
// name with its unit, and whatever was found wrong.
func printRun(r *run, res result) {
	fmt.Printf("workload %s  %s\n", r.workload, envLine(r.root, r.seed))
	untraced := len(r.walls(false))
	fmt.Printf("  %d timed passes (%d traced), %d operations attempted, %d failed\n",
		len(r.passes), len(r.passes)-untraced, res.Attempted, res.Failed)
	fmt.Print("  pass walls (s):")
	for _, p := range r.passes {
		fmt.Printf(" %.3f", secs(p.wall))
	}
	fmt.Println()
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if r.trace {
		r.printSelfTimes()
	}
	for _, p := range r.problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
}

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed      = flag.Int64("seed", 1, "workload seed: HT ladder keys, inline job parameters, request and launch order")
		seconds   = flag.Float64("seconds", 25, "how long one run measures")
		trace     = flag.Int("trace", 0, "1 = traced run: span recorder around every layer call, layer probes, per-layer metrics")
		calibrate = flag.Int("calibrate", 0, "run every workload this many times (seeds 1..N) and print each end-to-end metric's spread against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	switch {
	case *workload != "":
		r, res, err := execute(*workload, *seed, *seconds, *trace == 1, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		printRun(r, res)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(3)
		}
	case *calibrate > 0:
		os.Exit(runCalibrate(*calibrate, *seconds))
	default:
		os.Exit(runSuite(*seed, *seconds, *trace == 1))
	}
}

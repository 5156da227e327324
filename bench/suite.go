package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// child runs one workload in a fresh process, so that set-up time and
// peak memory are the workload's own, and returns its result line.
func child(name string, seed int64, seconds float64, trace bool, echo bool) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if echo {
		// Everything but the result line is the child's report.
		os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
		fmt.Println()
	}
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		return result{}, fmt.Errorf("bench: %s printed no result (%v): %v", name, err, jerr)
	}
	return res, nil
}

// runSuite runs every workload, untraced and then (with trace) traced,
// and returns the process exit code.
func runSuite(seed int64, seconds float64, trace bool) int {
	code := 0
	for _, w := range workloads {
		modes := []bool{false}
		if trace {
			modes = append(modes, true)
		}
		for _, traced := range modes {
			res, err := child(w.name, seed, seconds, traced, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
			} else if !res.Correct {
				code = 3
			}
		}
	}
	if code == 0 {
		fmt.Printf("all %d workloads correct\n", len(workloads))
	}
	return code
}

// runCalibrate runs every workload n times, seeds 1..n, and prints each
// end-to-end metric's spread as the acceptance rule takes it: the
// distance between the first and third quartile as a share of the
// median. A spread above a third of the metric's bound is flagged.
func runCalibrate(n int, seconds float64) int {
	code := 0
	for _, w := range workloads {
		values := map[string][]float64{}
		for seed := 1; seed <= n; seed++ {
			res, err := child(w.name, int64(seed), seconds, false, false)
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: correct=%v err=%v\n", w.name, seed, res.Correct, err)
				code = 1
				continue
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("%s (%d runs)\n", w.name, n)
		for _, m := range endToEndMetrics {
			v := values[m.name]
			q1, q3 := quartiles(v)
			spread := ratio(q3-q1, median(v))
			flag := ""
			if m.name != "setup_s" && spread > m.bound/3 {
				flag = "  <-- above a third of the bound"
				code = 1
			}
			fmt.Printf("  %-12s median %12.6g %-4s spread %6.2f%%  bound %4.0f%%%s\n",
				m.name, median(v), m.unit, 100*spread, 100*m.bound, flag)
		}
	}
	return code
}

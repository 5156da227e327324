package main

import (
	"bufio"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of v (mean of the two middle values
// for an even count), or 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because
// that is the spread the benchmark's acceptance rule is written in.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return median(s), median(s)
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// best and bestRate summarise a metric over the passes of one run: the
// smallest time, the largest rate. On a shared host the neighbours only
// ever slow a pass down, and they do it in episodes that last from
// seconds to minutes and stretch every pass inside them by 1.3 to 1.9
// times, so the pass that met the quietest machine is the one that
// repeats from run to run. Replaying sets of ten runs over twenty
// recorded minutes of launch_storm passes on the reference box, two long
// episodes among them, the spread of ten 25-second runs passed 25% in 11%
// of the sets with the median pass, in 2% with the lower quartile and in
// none with the fastest; with 10-second runs it did in 10% even so
// (README, Steadiness).
func best(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Min(v)
}

func bestRate(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Max(v)
}

// percentile returns the nearest-rank q-quantile of an ascending slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// ms and secs convert durations to float metric values.
func ms(d time.Duration) float64   { return float64(d.Nanoseconds()) / 1e6 }
func secs(d time.Duration) float64 { return d.Seconds() }

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// Command warpload load-tests a warpsimd daemon: N concurrent clients
// drive a fixed job mix (default: the golden 32-run quick sync matrix —
// 8 kernels × GTO/CAWA × ±BOWS) through POST /v1/jobs and report
// latency percentiles, throughput and cache hit rate. With no -addr it
// spins up an in-process server on a loopback port, so one command
// exercises the full stack.
//
//	warpload -clients 1000 -requests 8000
//	warpload -addr http://localhost:8723 -clients 256 -requests 4096
//
// Submissions go through the hardened client (internal/server.Client):
// a full queue's 429 + Retry-After, a draining daemon's 503 and transport
// faults are retried with capped jittered backoff (-retries attempts per
// call). Requests that still fail after every retry are counted,
// classified and dumped as a JSON error summary on stderr, and the
// process exits non-zero — so CI can assert both the happy path and the
// failure contract.
//
// -verify re-runs every distinct job in the mix directly on the engine
// and diffs cycles and the full counter snapshot against the daemon's
// cached manifests — the zero-divergence check that the service layer
// returns exactly what cmd/warpsim would have computed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"warpsched/internal/exp"
	"warpsched/internal/metrics"
	"warpsched/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "", "daemon base URL (empty = start an in-process server)")
		clients  = flag.Int("clients", 64, "concurrent clients")
		requests = flag.Int("requests", 2048, "total requests across all clients")
		warmup   = flag.Bool("warmup", true, "submit each distinct job once before the timed phase")
		verify   = flag.Bool("verify", false, "re-run the mix directly on the engine and diff against cached manifests")
		workers  = flag.Int("workers", 0, "in-process server worker pool size (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 64, "in-process server queue depth")
		retries  = flag.Int("retries", 5, "attempts per request (queue-full, draining and transport failures back off and retry)")
	)
	flag.Parse()

	mix := jobMix()
	opt := server.Options{Workers: *workers, QueueDepth: *queue}

	base := *addr
	var drain func()
	if base == "" {
		var err error
		base, drain, err = startLocal(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("in-process server at %s\n", base)
	}

	cli := server.NewClient(base, server.ClientOptions{
		HTTP: &http.Client{Timeout: 10 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: *clients}},
		MaxAttempts: *retries,
	})
	rec := &errorRecorder{byClass: map[string]int{}}

	if *warmup {
		fmt.Printf("warmup: %d distinct jobs...\n", len(mix))
		start := time.Now()
		var wg sync.WaitGroup
		for i := range mix {
			wg.Add(1)
			go func(r *server.JobRequest) {
				defer wg.Done()
				if _, _, err := submit(cli, r); err != nil {
					rec.add(err)
					fmt.Fprintf(os.Stderr, "warmup: %v\n", err)
				}
			}(&mix[i])
		}
		wg.Wait()
		fmt.Printf("warmup done in %.1fs\n", time.Since(start).Seconds())
	}

	fmt.Printf("load: %d clients, %d requests over a %d-job mix\n", *clients, *requests, len(mix))
	lats := make([]time.Duration, *requests)
	var cachedCount atomic.Int32
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *requests {
					return
				}
				t0 := time.Now()
				_, cached, err := submit(cli, &mix[i%len(mix)])
				lats[i] = time.Since(t0)
				if err != nil {
					rec.add(err)
					continue
				}
				if cached {
					cachedCount.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(q float64) time.Duration { return lats[min(len(lats)-1, int(q*float64(len(lats))))] }
	errCount := rec.count()
	ok := *requests - errCount
	fmt.Printf("\n%d requests in %.2fs (%.0f req/s), %d errors, %d retries\n",
		*requests, wall.Seconds(), float64(*requests)/wall.Seconds(), errCount, cli.Retries())
	fmt.Printf("latency  p50 %s  p90 %s  p99 %s  p99.9 %s  max %s\n",
		pct(0.50), pct(0.90), pct(0.99), pct(0.999), lats[len(lats)-1])
	if ok > 0 {
		fmt.Printf("cache    %d/%d responses cached (%.1f%% hit rate)\n",
			cachedCount.Load(), ok, 100*float64(cachedCount.Load())/float64(ok))
	}
	dumpStats(cli)

	divergent := 0
	if *verify {
		divergent = verifyMix(cli, opt, mix)
	}
	if drain != nil {
		drain()
	}
	if errCount > 0 || divergent > 0 {
		rec.dump(os.Stderr, *requests, cli, divergent)
		os.Exit(1)
	}
}

// errorRecorder classifies ultimate (post-retry) failures for the
// machine-readable summary CI asserts on.
type errorRecorder struct {
	mu      sync.Mutex
	errs    int
	byClass map[string]int
	sample  []string
}

// add classifies one failed request: API errors by HTTP status, job
// failures and transport faults by kind.
func (r *errorRecorder) add(err error) {
	class := "transport"
	var ae *server.APIError
	if errors.As(err, &ae) {
		class = "http_" + strconv.Itoa(ae.Status)
	} else if errors.Is(err, errJobFailed) {
		class = "job_failed"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errs++
	r.byClass[class]++
	if len(r.sample) < 5 {
		r.sample = append(r.sample, err.Error())
	}
}

func (r *errorRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.errs
}

// dump writes the structured failure summary as one JSON line prefixed
// with "warpload: FAIL " — the contract scripts/service_smoke.sh greps.
func (r *errorRecorder) dump(w *os.File, requests int, cli *server.Client, divergent int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	summary := struct {
		Requests  int            `json:"requests"`
		Errors    int            `json:"errors"`
		Divergent int            `json:"divergent"`
		Retries   int64          `json:"retries"`
		ByClass   map[string]int `json:"by_class"`
		Sample    []string       `json:"sample,omitempty"`
	}{requests, r.errs, divergent, cli.Retries(), r.byClass, r.sample}
	data, err := json.Marshal(summary)
	if err != nil {
		data = []byte(`{"errors":` + strconv.Itoa(r.errs) + `}`)
	}
	fmt.Fprintf(w, "warpload: FAIL %s\n", data)
}

// jobMix is the golden 32-run matrix: the quick sync suite under
// GTO/CAWA with BOWS off and on, on the 2-SM Fermi — the same runs the
// golden-stats gate pins, so results are independently known-good.
func jobMix() []server.JobRequest {
	kernels := []string{"TB", "ST", "DS", "ATM", "HT", "TSP", "NW1", "NW2"}
	var mix []server.JobRequest
	for _, k := range kernels {
		for _, sched := range []string{"GTO", "CAWA"} {
			for _, bows := range []string{"off", "ddos"} {
				mix = append(mix, server.JobRequest{Kernel: k, Wait: true,
					Config: server.JobConfig{SMs: 2, Quick: true, Sched: sched, BOWS: bows}})
			}
		}
	}
	return mix
}

// startLocal runs an in-process daemon on a loopback port and returns
// its base URL and a drain func.
func startLocal(opt server.Options) (string, func(), error) {
	s, err := server.New(opt)
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(ln)
	drain := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		httpSrv.Shutdown(ctx)
		s.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), drain, nil
}

// errJobFailed marks a job the daemon admitted and ran but that finished
// with a simulation error.
var errJobFailed = errors.New("job failed")

// submit posts one synchronous job through the hardened client and
// returns its result key and whether the response was served from cache.
func submit(cli *server.Client, req *server.JobRequest) (key string, cached bool, err error) {
	st, err := cli.Submit(context.Background(), req)
	if err != nil {
		return "", false, err
	}
	if st.Err != "" {
		return st.Key, st.Cached, fmt.Errorf("%w: job %s: %s", errJobFailed, st.ID, st.Err)
	}
	return st.Key, st.Cached, nil
}

// dumpStats prints the daemon's own view (GET /v1/stats).
func dumpStats(cli *server.Client) {
	st, err := cli.Stats(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "stats: %v\n", err)
		return
	}
	fmt.Printf("server   engine runs %d, deduped %d, cache %d/%d hits (%.1f%%), evictions %d, latency p50 %dµs p99 %dµs\n",
		st.Jobs.EngineRuns, st.Jobs.Deduped, st.Cache.Hits, st.Cache.Hits+st.Cache.Misses,
		100*st.Cache.HitRate, st.Cache.Evictions, st.LatencyUS.P50, st.LatencyUS.P99)
	fmt.Printf("admit    %d/%d requests admitted from the table (%.1f%%), %d entries (%d/%d bytes), evictions %d\n",
		st.Admission.Hits, st.Admission.Hits+st.Admission.Misses, 100*st.Admission.HitRate,
		st.Admission.Entries, st.Admission.Bytes, st.Admission.MaxBytes, st.Admission.Evictions)
	if st.Store != nil {
		fmt.Printf("store    %d entries (%d/%d bytes), %d hits, %d quarantined\n",
			st.Store.Entries, st.Store.Bytes, st.Store.MaxBytes, st.Store.Hits, st.Store.Quarantined)
	}
}

// verifyMix re-runs every distinct job directly on the engine (same
// resolution path the daemon admits with) and compares cycles and the
// full counter snapshot against the cached manifest. Returns the number
// of divergent jobs (zero is the acceptance bar: the service must be a
// transparent cache over the deterministic engine).
func verifyMix(cli *server.Client, opt server.Options, mix []server.JobRequest) int {
	fmt.Printf("\nverify: re-running %d jobs directly on the engine...\n", len(mix))
	divergent := 0
	for i := range mix {
		req := mix[i]
		spec, rerr := opt.Resolve(&req)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "verify: resolve: %v\n", rerr)
			divergent++
			continue
		}
		key, _, err := submit(cli, &req)
		if err != nil {
			fmt.Fprintf(os.Stderr, "verify: %v\n", err)
			divergent++
			continue
		}
		data, err := cli.Result(context.Background(), key)
		if err != nil {
			fmt.Fprintf(os.Stderr, "verify: fetch result: %v\n", err)
			divergent++
			continue
		}
		var m metrics.Manifest
		if err := json.Unmarshal(data, &m); err != nil || len(m.Runs) != 1 {
			fmt.Fprintf(os.Stderr, "verify: manifest for %s: %v (%d runs)\n", key, err, len(m.Runs))
			divergent++
			continue
		}
		out := exp.Cfg{Jobs: 1}.Execute([]exp.Spec{spec})[0]
		if out.Err != nil {
			fmt.Fprintf(os.Stderr, "verify: direct run %s: %v\n", req.Kernel, out.Err)
			divergent++
			continue
		}
		rec := m.Runs[0]
		switch {
		case out.Res.Stats.Cycles != rec.Cycles:
			fmt.Fprintf(os.Stderr, "verify: %s %s: cycles %d (direct) != %d (cached)\n",
				req.Kernel, rec.Variant, out.Res.Stats.Cycles, rec.Cycles)
			divergent++
		case !reflect.DeepEqual(out.Res.Metrics.Counters, rec.Counters):
			fmt.Fprintf(os.Stderr, "verify: %s %s: counter snapshots differ\n", req.Kernel, rec.Variant)
			divergent++
		}
	}
	if divergent == 0 {
		fmt.Printf("verify: zero divergence across %d jobs\n", len(mix))
	} else {
		fmt.Fprintf(os.Stderr, "verify: %d/%d jobs diverged\n", divergent, len(mix))
	}
	return divergent
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "warpload:", err)
	os.Exit(1)
}

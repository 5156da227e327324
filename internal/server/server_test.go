package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"warpsched/internal/exp"
	"warpsched/internal/metrics"
	"warpsched/internal/stats"
)

// fastIters/slowIters pick loop lengths for testSrc: fastIters finishes
// in well under a second; slowIters runs long enough (hundreds of ms)
// that a test can observe the job mid-flight.
const (
	fastIters = 1000
	slowIters = 100_000
)

func newTestServer(t *testing.T, opt Options) *Server {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s
}

// manifestOf reads a finished job's manifest back from the cache tiers:
// the job itself keeps only the headline.
func manifestOf(t *testing.T, s *Server, j *job) []byte {
	t.Helper()
	res, ok := s.Result(j.key)
	if !ok {
		t.Fatalf("result %s is in no cache tier", j.key)
	}
	return res.Manifest
}

func postJob(t *testing.T, base string, req *JobRequest) (JobStatus, int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var st JobStatus
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decode %s: %v", data, err)
		}
	}
	return st, resp.StatusCode, data
}

func getBytes(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, data
}

// TestEndToEnd drives the full HTTP surface: a synchronous submission
// runs the engine; resubmitting the identical job is a cache hit that
// runs nothing and serves byte-identical result bytes.
func TestEndToEnd(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := inlineReq(fastIters)
	req.Wait = true
	st, code, _ := postJob(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("first POST: status %d", code)
	}
	if st.State != "done" || st.Cached || st.Cycles <= 0 || st.Key == "" || st.Err != "" {
		t.Fatalf("first job: %+v", st)
	}
	t.Logf("loop with %d iters took %d cycles", fastIters, st.Cycles)

	t0 := time.Now()
	st2, code, _ := postJob(t, ts.URL, req)
	hitLatency := time.Since(t0)
	if code != http.StatusOK || !st2.Cached || st2.State != "done" {
		t.Fatalf("second POST: status %d, %+v", code, st2)
	}
	if st2.Key != st.Key || st2.Cycles != st.Cycles {
		t.Errorf("cache hit differs: %+v vs %+v", st2, st)
	}
	// The acceptance bar is sub-10ms; allow slack for loaded CI hosts
	// while still catching an accidental engine re-run.
	if hitLatency > 500*time.Millisecond {
		t.Errorf("cache hit took %s", hitLatency)
	}

	code1, body1 := getBytes(t, ts.URL+"/v1/results/"+st.Key)
	code2, body2 := getBytes(t, ts.URL+"/v1/results/"+st.Key)
	if code1 != 200 || code2 != 200 {
		t.Fatalf("GET results: %d, %d", code1, code2)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("repeated result fetches are not byte-identical")
	}
	var m metrics.Manifest
	if err := json.Unmarshal(body1, &m); err != nil {
		t.Fatalf("result is not a manifest: %v", err)
	}
	if len(m.Runs) != 1 || m.Runs[0].Cycles != st.Cycles || m.Runs[0].Counters == nil {
		t.Errorf("manifest runs: %+v", m.Runs)
	}

	_, code, _ = postJob(t, ts.URL, req) // third hit, then poll by id
	if code != http.StatusOK {
		t.Fatalf("third POST: %d", code)
	}
	code, data := getBytes(t, ts.URL+"/v1/jobs/"+st.ID)
	if code != 200 {
		t.Fatalf("GET job %s: %d (%s)", st.ID, code, data)
	}

	var stats Stats
	if code, data := getBytes(t, ts.URL+"/v1/stats"); code != 200 {
		t.Fatalf("GET stats: %d", code)
	} else if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.Jobs.EngineRuns != 1 {
		t.Errorf("engine runs = %d, want 1 (cache must absorb repeats)", stats.Jobs.EngineRuns)
	}
	if stats.Jobs.Admitted != 3 || stats.Cache.Hits < 2 {
		t.Errorf("stats: %+v", stats.Jobs)
	}

	if code, _ := getBytes(t, ts.URL+"/v1/jobs/nope"); code != 404 {
		t.Errorf("unknown job: %d, want 404", code)
	}
	if code, _ := getBytes(t, ts.URL+"/v1/results/nope"); code != 404 {
		t.Errorf("unknown result: %d, want 404", code)
	}
	if code, _ := getBytes(t, ts.URL+"/healthz"); code != 200 {
		t.Errorf("healthz: %d", code)
	}
}

// TestAsyncSubmit polls an asynchronous submission to completion.
func TestAsyncSubmit(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, code, _ := postJob(t, ts.URL, inlineReq(slowIters))
	if code != http.StatusAccepted {
		t.Fatalf("async POST: status %d, want 202", code)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for st.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", st.ID, st)
		}
		time.Sleep(5 * time.Millisecond)
		code, data := getBytes(t, ts.URL+"/v1/jobs/"+st.ID)
		if code != 200 {
			t.Fatalf("poll: %d", code)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("poll decode: %v", err)
		}
	}
	if st.Err != "" || st.Cycles <= 0 {
		t.Fatalf("job failed: %+v", st)
	}
}

// TestBadRequests covers the admission reject paths: malformed JSON,
// unknown fields, invalid configuration, and — the 422 path — a program
// that parses but fails static analysis.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}

	if code, _ := post("{not json"); code != 400 {
		t.Errorf("malformed JSON: %d, want 400", code)
	}
	if code, _ := post(`{"kernle": "HT"}`); code != 400 {
		t.Errorf("unknown field: %d, want 400", code)
	}
	// The wire has no deadline or priority: the bounded queue is the only
	// shed and jobs run in admission order.
	for _, field := range []string{"deadline_ms", "priority"} {
		body := fmt.Sprintf(`{"kernel":"HT","config":{"quick":true},%q:1}`, field)
		if code, data := post(body); code != 400 || !strings.Contains(string(data), field) {
			t.Errorf("%s: %d (%s), want a 400 naming the field", field, code, data)
		}
	}
	for name, req := range map[string]*JobRequest{
		"no program":      {},
		"both":            {Kernel: "HT", Source: testSrc},
		"unknown kernel":  {Kernel: "NOPE"},
		"unknown sched":   {Kernel: "HT", Config: JobConfig{Quick: true, Sched: "FIFO"}},
		"unserved sched":  {Kernel: "HT", Config: JobConfig{Quick: true, Sched: "WASP"}},
		"unknown gpu":     {Kernel: "HT", Config: JobConfig{Quick: true, GPU: "volta"}},
		"unknown bows":    {Kernel: "HT", Config: JobConfig{Quick: true, BOWS: "on"}},
		"unknown hash":    {Kernel: "HT", Config: JobConfig{Quick: true, Hash: "sha"}},
		"negative sms":    {Kernel: "HT", Config: JobConfig{Quick: true, SMs: -1}},
		"no geometry":     {Source: testSrc},
		"huge max_cycles": {Kernel: "HT", Config: JobConfig{Quick: true, MaxCycles: 1 << 60}},
		"parse error":     {Source: "frob %r1", GridCTAs: 1, CTAThreads: 32, MemWords: 64},
		// Would fail analysis with a 422; the ceiling turns it away first.
		"too long": {Source: strings.Repeat("add %r1, %r2, 1\n", maxInlineInstrs) + "exit\n",
			GridCTAs: 1, CTAThreads: 32, MemWords: 64},
	} {
		body, _ := json.Marshal(req)
		if code, data := post(string(body)); code != 400 {
			t.Errorf("%s: %d (%s), want 400", name, code, data)
		}
	}

	// Parses cleanly but reads an uninitialized register: static analysis
	// must reject it at admission with findings, HTTP 422.
	bad := &JobRequest{Source: "add %r1, %r2, 1\nexit\n",
		GridCTAs: 1, CTAThreads: 32, MemWords: 64}
	body, _ := json.Marshal(bad)
	code, data := post(string(body))
	if code != 422 {
		t.Fatalf("analysis reject: %d (%s), want 422", code, data)
	}
	var eb struct {
		Error    string            `json:"error"`
		Findings []json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal(data, &eb); err != nil || len(eb.Findings) == 0 {
		t.Errorf("422 body should carry findings: %s (%v)", data, err)
	}
	if st := s.Stats(); st.Jobs.RejectedInvalid == 0 {
		t.Error("rejected_invalid not counted")
	}

	// Structurally sound but racy: lanes 2k and 2k+1 both store word k.
	// The race analyzer must reject it at admission (422, schema-2
	// findings with class "race"), and allow_unsafe must admit it.
	racy := &JobRequest{Source: racySrc, GridCTAs: 1, CTAThreads: 64, MemWords: 64}
	body, _ = json.Marshal(racy)
	code, data = post(string(body))
	if code != 422 {
		t.Fatalf("race reject: %d (%s), want 422", code, data)
	}
	var rb struct {
		Error    string `json:"error"`
		Schema   int    `json:"schema"`
		Findings []struct {
			Category string `json:"category"`
			Class    string `json:"class"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(data, &rb); err != nil || len(rb.Findings) == 0 {
		t.Fatalf("race 422 body should carry findings: %s (%v)", data, err)
	}
	if rb.Schema != 2 {
		t.Errorf("race 422 schema = %d, want 2", rb.Schema)
	}
	if rb.Findings[0].Category != "race" || rb.Findings[0].Class != "race" {
		t.Errorf("race 422 finding = %+v, want category/class race", rb.Findings[0])
	}

	unsafe := &JobRequest{Source: racySrc, GridCTAs: 1, CTAThreads: 64,
		MemWords: 64, AllowUnsafe: true, Wait: true}
	body, _ = json.Marshal(unsafe)
	if code, data := post(string(body)); code != 200 {
		t.Errorf("allow_unsafe admit: %d (%s), want 200", code, data)
	}
}

// racySrc parses and validates but has an inter-warp store/store race:
// lanes 2k and 2k+1 both write word k of param-less memory at base 0.
const racySrc = `
  mov %r1, %tid
  shr %r3, %r1, 1
  st.global [%r3+0], %r1
  exit
`

// TestSingleFlight submits the same job from many goroutines at once
// and checks exactly one engine run happens, with every caller getting
// the same result.
func TestSingleFlight(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})

	const k = 8
	var wg sync.WaitGroup
	cycles := make([]int64, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, rerr := s.Submit(inlineReq(slowIters))
			if rerr != nil {
				t.Errorf("submit %d: %v", i, rerr)
				return
			}
			<-j.done
			cycles[i] = j.cycles
		}(i)
	}
	wg.Wait()

	st := s.Stats()
	if st.Jobs.EngineRuns != 1 {
		t.Errorf("engine runs = %d, want 1 (single-flight)", st.Jobs.EngineRuns)
	}
	if st.Jobs.Admitted+st.Jobs.Deduped != k {
		t.Errorf("admitted %d + deduped %d != %d submissions", st.Jobs.Admitted, st.Jobs.Deduped, k)
	}
	for i := 1; i < k; i++ {
		if cycles[i] != cycles[0] {
			t.Fatalf("caller %d saw %d cycles, caller 0 saw %d", i, cycles[i], cycles[0])
		}
	}
}

// TestQueueFull: with one worker and a one-deep queue, a third distinct
// job must be shed with 429 while the first runs and the second waits,
// and — this being the only shed — tell the client when to come back,
// directly and as the Retry-After header of the HTTP reply.
func TestQueueFull(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})

	a, rerr := s.Submit(inlineReq(slowIters))
	if rerr != nil {
		t.Fatalf("submit a: %v", rerr)
	}
	waitRunning(t, s, 1) // the worker has job a, so the queue is empty
	b, rerr := s.Submit(inlineReq(slowIters + 1))
	if rerr != nil {
		t.Fatalf("submit b: %v", rerr)
	}
	_, rerr = s.Submit(inlineReq(slowIters + 2))
	if rerr == nil || rerr.Status != http.StatusTooManyRequests {
		t.Fatalf("third submit: %v, want 429", rerr)
	}
	if rerr.RetryAfter < 1 {
		t.Errorf("RetryAfter = %d, want >= 1", rerr.RetryAfter)
	}
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(inlineReq(slowIters + 3))
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("HTTP submit into a full queue: %d (%s), want 429", rec.Code, rec.Body.Bytes())
	}
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After header %q, want a whole number of seconds >= 1", rec.Header().Get("Retry-After"))
	}
	if st := s.Stats(); st.Jobs.RejectedQueueFull != 2 {
		t.Errorf("rejected_queue_full = %d, want 2", st.Jobs.RejectedQueueFull)
	}
	<-a.done
	<-b.done
}

// TestRetryAfterSeconds: the queue-full hint is the estimate rounded up
// to whole seconds, never less than one.
func TestRetryAfterSeconds(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Nanosecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
	} {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%s) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestDrain: Shutdown finishes queued and running jobs, then admission
// answers 503 and /healthz flips to draining.
func TestDrain(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, rerr := s.Submit(inlineReq(slowIters))
	if rerr != nil {
		t.Fatalf("submit a: %v", rerr)
	}
	b, rerr := s.Submit(inlineReq(slowIters + 1))
	if rerr != nil {
		t.Fatalf("submit b: %v", rerr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, j := range []*job{a, b} {
		select {
		case <-j.done:
		default:
			t.Fatal("Shutdown returned with unfinished jobs")
		}
		if j.err != "" || j.cycles <= 0 {
			t.Errorf("drained job: %d cycles, err %q", j.cycles, j.err)
		}
	}
	if _, rerr := s.Submit(inlineReq(fastIters)); rerr == nil || rerr.Status != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: %v, want 503", rerr)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", rec.Code)
	}
	// Second Shutdown is a no-op, not a panic.
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestProgress observes live cycle counts on a running job via the
// engine's progress hook.
func TestProgress(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	j, rerr := s.Submit(inlineReq(3 * slowIters))
	if rerr != nil {
		t.Fatalf("submit: %v", rerr)
	}
	var sawLive int64
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := s.status(j)
		if st.State == "running" && st.Cycles > 0 && sawLive == 0 {
			sawLive = st.Cycles
		}
		if st.State == "done" {
			if st.Err != "" {
				t.Fatalf("job failed: %+v", st)
			}
			if sawLive == 0 {
				t.Fatalf("never observed live progress before completion (final: %d cycles)", st.Cycles)
			}
			if sawLive > st.Cycles {
				t.Errorf("live progress %d exceeds final cycle count %d", sawLive, st.Cycles)
			}
			t.Logf("live progress %d of %d final cycles", sawLive, st.Cycles)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestResultMatchesLocalRun: the manifest a job leaves behind is the run
// a local engine makes of the same spec — cycles, and every counter once
// the per-SM names are folded into machine totals (stats.FromCounters).
func TestResultMatchesLocalRun(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	req := inlineReq(fastIters)
	j, rerr := s.Submit(req)
	if rerr != nil {
		t.Fatalf("Submit: %v", rerr)
	}
	waitDone(t, j)
	var m metrics.Manifest
	if err := json.Unmarshal(manifestOf(t, s, j), &m); err != nil || len(m.Runs) != 1 {
		t.Fatalf("result manifest: %v (%d runs)", err, len(m.Runs))
	}
	served := stats.FromCounters(m.Runs[0].Cycles, m.Runs[0].Counters)

	spec, rerr := Options{}.Resolve(req)
	if rerr != nil {
		t.Fatalf("Resolve: %v", rerr)
	}
	local := exp.Cfg{Jobs: 1}.Execute([]exp.Spec{spec})[0]
	if local.Err != nil {
		t.Fatalf("local run: %v", local.Err)
	}
	want := &local.Res.Stats
	if served.Cycles != want.Cycles || served.WarpInstrs != want.WarpInstrs || served.WarpInstrs == 0 ||
		served.IssueCycles != want.IssueCycles || served.Sync != want.Sync || served.Mem != want.Mem {
		t.Errorf("served run differs from the local one:\n%+v\nvs\n%+v", served, want)
	}
}

// TestWatchdogJobKeepsPartialResult: a job that exhausts its cycle budget
// finishes with the error and the partial run beside it, the convention a
// watchdog abort has in a local sweep.
func TestWatchdogJobKeepsPartialResult(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	req := inlineReq(slowIters)
	req.Config.MaxCycles = 2000
	j, rerr := s.Submit(req)
	if rerr != nil {
		t.Fatalf("Submit: %v", rerr)
	}
	waitDone(t, j)
	if j.err == "" {
		t.Fatal("watchdog abort came back clean")
	}
	var m metrics.Manifest
	if err := json.Unmarshal(manifestOf(t, s, j), &m); err != nil || len(m.Runs) != 1 {
		t.Fatalf("result manifest: %v (%d runs)", err, len(m.Runs))
	}
	if r := m.Runs[0]; r.Err != j.err || r.Cycles <= 0 || r.Counters == nil {
		t.Errorf("partial result missing: err %q, %d cycles, counters %v", r.Err, r.Cycles, r.Counters != nil)
	}
}

// TestRegisteredKernelJob runs a real registered kernel (quick HT)
// through the service and sanity-checks the manifest config block.
func TestRegisteredKernelJob(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := &JobRequest{Kernel: "HT", Wait: true,
		Config: JobConfig{SMs: 2, Quick: true, Sched: "GTO"}}
	st, code, _ := postJob(t, ts.URL, req)
	if code != 200 || st.Err != "" || st.Cycles <= 0 {
		t.Fatalf("HT job: code %d, %+v", code, st)
	}
	_, body := getBytes(t, ts.URL+"/v1/results/"+st.Key)
	var m metrics.Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if m.Config["cache_key"] != st.Key || m.Config["kernel"] != "HT" {
		t.Errorf("manifest config: %+v", m.Config)
	}
	if fmt.Sprint(m.Config["sim_version"]) == "" {
		t.Error("manifest missing sim_version")
	}
}

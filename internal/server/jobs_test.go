package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestJobIDIsContentKey: a job's id is its result key. GET /v1/jobs/{id}
// answers from the job map while the job runs and from the cache tiers
// once it is done — also after a restart on the same store — without
// moving the cache statistics; an id nobody knows is a 404 that says to
// resubmit.
func TestJobIDIsContentKey(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := newTestServer(t, Options{Workers: 1, StoreDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(base, id string) (int, JobStatus, string) {
		t.Helper()
		code, data := getBytes(t, base+"/v1/jobs/"+id)
		var st JobStatus
		if code == http.StatusOK {
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatalf("decode %s: %v", data, err)
			}
		}
		return code, st, string(data)
	}

	st, code, _ := postJob(t, ts.URL, inlineReq(slowIters))
	if code != http.StatusAccepted || st.ID != st.Key || st.Key == "" {
		t.Fatalf("async POST: %d %+v, want 202 with id == key", code, st)
	}
	if code, live, _ := get(ts.URL, st.ID); code != 200 || live.State == "done" || live.Cached {
		t.Errorf("in-flight GET: %d %+v, want a queued or running job", code, live)
	}
	if j := inflight(s, st.Key); j != nil {
		waitDone(t, j)
	}
	if inflight(s, st.Key) != nil {
		t.Error("a finished job is still in the job map")
	}
	before := s.Stats().Cache
	code, done, _ := get(ts.URL, st.ID)
	if code != 200 || done.State != "done" || !done.Cached || done.ID != st.Key || done.Cycles <= 0 {
		t.Fatalf("finished GET: %d %+v, want done and cached", code, done)
	}
	if after := s.Stats().Cache; after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("a status poll moved the cache counts: %+v, then %+v", before, after)
	}
	for _, id := range []string{"nope", "a", "j1", st.Key + "0"} {
		if code, _, body := get(ts.URL, id); code != 404 || !strings.Contains(body, "resubmit") {
			t.Errorf("GET /v1/jobs/%s: %d %s, want a 404 that says to resubmit", id, code, body)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	s2 := newTestServer(t, Options{Workers: 1, StoreDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if code, again, _ := get(ts2.URL, st.ID); code != 200 || again != done {
		t.Errorf("GET after restart: %d %+v, want %+v from the store", code, again, done)
	}
}

// TestQueueAdmissionOrderAndDrain: with one worker, queued jobs start in
// the order they were admitted, and Shutdown runs every queued job
// before the worker exits.
func TestQueueAdmissionOrderAndDrain(t *testing.T) {
	var mu sync.Mutex
	var finished []string
	s, err := New(Options{Workers: 1, QueueDepth: 8, Log: func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if key, ok := strings.CutPrefix(line, "job "); ok {
			mu.Lock()
			finished = append(finished, strings.Fields(key)[0])
			mu.Unlock()
		}
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var jobs []*job
	var want []string
	for i, iters := range []uint32{3 * slowIters, fastIters + 4, fastIters + 1, fastIters + 3, fastIters + 2} {
		j, rerr := s.Submit(inlineReq(iters))
		if rerr != nil {
			t.Fatalf("Submit %d: %v", i, rerr)
		}
		if i == 0 {
			waitRunning(t, s, 1)
		}
		jobs = append(jobs, j)
		want = append(want, j.key)
	}
	if q := s.Stats().QueueDepth; q != 4 {
		t.Fatalf("queue depth %d before Shutdown, want the 4 jobs behind the running one", q)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i, j := range jobs {
		select {
		case <-j.done:
		default:
			t.Fatalf("job %d still unfinished after Shutdown", i)
		}
	}
	if strings.Join(finished, " ") != strings.Join(want, " ") {
		t.Errorf("jobs ran in order\n%v\nwant admission order\n%v", finished, want)
	}
}

// TestJobMapBounded: the job map holds only queued and running jobs.
// Twenty thousand distinct submissions, each admitted as soon as the
// queue has room, never leave more than QueueDepth + Workers entries in
// it, and none once the last job is done.
func TestJobMapBounded(t *testing.T) {
	const n = 20_000
	opt := Options{Workers: 2, QueueDepth: 16, CacheBytes: 64 << 10}
	s := newTestServer(t, opt)
	bound := opt.QueueDepth + opt.Workers
	var outstanding []*job
	peak := 0
	for i := 0; i < n; {
		for len(outstanding) > 0 && isDone(outstanding[0]) {
			outstanding = outstanding[1:]
		}
		req := &JobRequest{Source: "exit\n", Name: "exit", GridCTAs: 1, CTAThreads: 32,
			MemWords: 1, Params: []uint32{uint32(i)}, Config: JobConfig{SMs: 1}}
		j, rerr := s.Submit(req)
		s.mu.Lock()
		peak = max(peak, len(s.jobs))
		s.mu.Unlock()
		if rerr != nil {
			if rerr.Status != http.StatusTooManyRequests || len(outstanding) == 0 {
				t.Fatalf("Submit %d: %v", i, rerr)
			}
			waitDone(t, outstanding[0]) // the queue has room once the oldest is done
			outstanding = outstanding[1:]
			continue
		}
		outstanding = append(outstanding, j)
		i++
	}
	for _, j := range outstanding {
		waitDone(t, j)
	}
	if peak > bound {
		t.Errorf("the job map held %d jobs, want at most QueueDepth + Workers = %d", peak, bound)
	}
	if left := len(s.jobs); left != 0 { // finish drops a job before it closes done
		t.Errorf("%d jobs left in the map after every job finished", left)
	}
	if st := s.Stats(); st.Jobs.EngineRuns != n {
		t.Errorf("%d engine runs, want %d distinct jobs", st.Jobs.EngineRuns, n)
	}
}

// inflight returns the queued or running job under key, nil if none is.
func inflight(s *Server, key string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[key]
}

func isDone(j *job) bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

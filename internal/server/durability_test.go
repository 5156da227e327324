package server

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warpsched/internal/metrics"
	"warpsched/internal/store"
)

// waitDone blocks until the job finishes, with a test-failing timeout.
func waitDone(t *testing.T, j *job) {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(time.Minute):
		t.Fatal("job did not finish within a minute")
	}
}

// waitRunning spins until the server has n jobs mid-simulation.
func waitRunning(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for s.running.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("server never reached %d running jobs", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStoreTierSurvivesRestart: with StoreDir set, a result computed by
// one server incarnation is served byte-identically by the next from
// disk, with no engine run.
func TestStoreTierSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	req := inlineReq(fastIters)

	a := newTestServer(t, Options{Workers: 1, StoreDir: dir})
	j, rerr := a.Submit(req)
	if rerr != nil {
		t.Fatalf("Submit: %v", rerr)
	}
	waitDone(t, j)
	if j.err != "" {
		t.Fatalf("job failed: %s", j.err)
	}
	res, ok := a.Result(j.key)
	if !ok {
		t.Fatal("finished job's result is not cached")
	}
	key, manifest := j.key, res.Manifest
	// Shutdown (via Cleanup ordering we do it explicitly here) flushes
	// the async persist queue before returning.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := a.Stats(); st.Jobs.Persisted != 1 {
		t.Fatalf("Persisted = %d, want 1 (stats: %+v)", st.Jobs.Persisted, st.Jobs)
	}

	b := newTestServer(t, Options{Workers: 1, StoreDir: dir})
	j2, rerr := b.Submit(req)
	if rerr != nil {
		t.Fatalf("Submit on restart: %v", rerr)
	}
	waitDone(t, j2)
	if !j2.cached {
		t.Error("restart submission was not served from a cache tier")
	}
	if j2.cycles != res.Cycles || j2.err != res.Err {
		t.Errorf("restart headline %d/%q, original %d/%q", j2.cycles, j2.err, res.Cycles, res.Err)
	}
	st := b.Stats()
	if st.Jobs.EngineRuns != 0 {
		t.Errorf("EngineRuns = %d after restart, want 0", st.Jobs.EngineRuns)
	}
	if st.Jobs.DiskHits != 1 {
		t.Errorf("DiskHits = %d, want 1", st.Jobs.DiskHits)
	}
	if res, ok := b.Result(key); !ok || !bytes.Equal(res.Manifest, manifest) {
		t.Error("Result() does not serve the persisted bytes")
	}
}

// TestAckedImpliesDurable: a drained store-backed server has written
// every fresh result, and the next incarnation serves each from disk.
func TestAckedImpliesDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := newTestServer(t, Options{Workers: 2, StoreDir: dir})
	var keys []string
	var jobs []*job
	for i := uint32(0); i < 4; i++ {
		j, rerr := s.Submit(inlineReq(fastIters + i))
		if rerr != nil {
			t.Fatalf("Submit %d: %v", i, rerr)
		}
		jobs = append(jobs, j)
		keys = append(keys, j.key)
	}
	for _, j := range jobs {
		waitDone(t, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := s.Stats(); st.Jobs.Persisted != 4 || st.Jobs.PersistFailed != 0 {
		t.Fatalf("persist stats: %+v", st.Jobs)
	}

	s2 := newTestServer(t, Options{Workers: 1, StoreDir: dir})
	for _, key := range keys {
		if _, ok := s2.Result(key); !ok {
			t.Errorf("key %s not durable across restart", key)
		}
	}
}

// TestResultFromManifest: the disk tier decodes two fields of a stored
// manifest. Anything that is not one run with an integer cycles and a
// string err is an error (fetch turns it into a miss and leaves the entry
// for inspection); a real manifest yields what the full decode yields,
// in one pass.
func TestResultFromManifest(t *testing.T) {
	for name, payload := range map[string]string{
		"truncated":      `{"schema":2,"runs":[{"cycles":12`,
		"empty object":   `{}`,
		"zero runs":      `{"schema":2,"runs":[]}`,
		"two runs":       `{"runs":[{"cycles":1},{"cycles":2}]}`,
		"cycles string":  `{"runs":[{"cycles":"x"}]}`,
		"cycles float":   `{"runs":[{"cycles":1.5}]}`,
		"err not string": `{"runs":[{"cycles":1,"err":7}]}`,
		"runs not array": `{"runs":{"cycles":1}}`,
		"trailing bytes": `{"runs":[{"cycles":1}]} x`,
	} {
		if res, err := resultFromManifest("k", []byte(payload)); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, res)
		}
	}

	s := newTestServer(t, Options{Workers: 1})
	clean, aborted := inlineReq(fastIters), inlineReq(slowIters)
	aborted.Config.MaxCycles = 2000
	for _, req := range []*JobRequest{clean, aborted} {
		j, rerr := s.Submit(req)
		if rerr != nil {
			t.Fatalf("Submit: %v", rerr)
		}
		waitDone(t, j)
		if (j.err != "") != (req == aborted) {
			t.Fatalf("job err %q: want one clean run and one watchdog abort", j.err)
		}
		engine, ok := s.Result(j.key)
		if !ok {
			t.Fatal("finished job's result is not cached")
		}
		var full metrics.Manifest
		if err := json.Unmarshal(engine.Manifest, &full); err != nil || len(full.Runs) != 1 {
			t.Fatalf("full decode: %v (%d runs)", err, len(full.Runs))
		}
		res, err := resultFromManifest(j.key, engine.Manifest)
		if err != nil {
			t.Fatalf("two-field decode of a real manifest: %v", err)
		}
		if res.Cycles != full.Runs[0].Cycles || res.Err != full.Runs[0].Err || res.Key != j.key ||
			res.Cycles != j.cycles || res.Err != j.err {
			t.Errorf("two-field decode %d/%q, full decode %d/%q, engine %d/%q", res.Cycles, res.Err,
				full.Runs[0].Cycles, full.Runs[0].Err, j.cycles, j.err)
		}
		if &res.Manifest[0] != &engine.Manifest[0] {
			t.Error("the payload was copied, not kept verbatim")
		}
		// A fresh manifest takes metrics.DecodeHeadline's one pass, whose
		// only allocation is the error string; encoding/json makes several.
		want := 1.0
		if res.Err != "" {
			want = 2
		}
		if n := testing.AllocsPerRun(10, func() { resultFromManifest(j.key, engine.Manifest) }); n > want {
			t.Errorf("decoding a fresh manifest made %v allocations, want %v: it left the one-pass path", n, want)
		}
	}
}

// TestUnparsableStoreEntryIsAMiss: checksum-valid entries whose payload
// is not a one-run manifest are misses, are not counted as disk hits and
// stay on disk; a real entry beside them is served byte for byte.
func TestUnparsableStoreEntryIsAMiss(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	a := newTestServer(t, Options{Workers: 1, StoreDir: dir})
	req := inlineReq(slowIters)
	req.Config.MaxCycles = 2000 // a watchdog abort: the entry carries an err
	j, rerr := a.Submit(req)
	if rerr != nil {
		t.Fatalf("Submit: %v", rerr)
	}
	waitDone(t, j)
	engine, ok := a.Result(j.key)
	if !ok {
		t.Fatal("finished job's result is not cached")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	bad := map[string]string{
		"bad-truncated": `{"schema":2,"runs":[{"cycles":12`,
		"bad-empty":     `{}`,
		"bad-zero-runs": `{"schema":2,"runs":[]}`,
		"bad-two-runs":  `{"runs":[{"cycles":1},{"cycles":2}]}`,
		"bad-cycles":    `{"runs":[{"cycles":"x"}]}`,
	}
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	for key, payload := range bad {
		if err := st.Put(key, []byte(payload)); err != nil {
			t.Fatalf("Put %s: %v", key, err)
		}
	}

	b := newTestServer(t, Options{Workers: 1, StoreDir: dir})
	for key := range bad {
		if res, ok := b.Result(key); ok {
			t.Errorf("%s: served %+v, want a miss", key, res)
		}
	}
	stats := b.Stats()
	if stats.Jobs.DiskHits != 0 {
		t.Errorf("DiskHits = %d after five unparsable entries, want 0", stats.Jobs.DiskHits)
	}
	if stats.Store.Entries != len(bad)+1 {
		t.Errorf("store holds %d entries, want all %d left for inspection", stats.Store.Entries, len(bad)+1)
	}
	res, ok := b.Result(j.key)
	if !ok || res.Cycles != j.cycles || res.Err != j.err || res.Err == "" ||
		!bytes.Equal(res.Manifest, engine.Manifest) {
		t.Errorf("real entry: ok=%v %+v, want cycles %d err %q and the same bytes", ok, res, j.cycles, j.err)
	}
	if got := b.Stats().Jobs.DiskHits; got != 1 {
		t.Errorf("DiskHits = %d, want 1", got)
	}
}

// gateFS is the real filesystem with a ReadFile that, once armed, reports
// that it was entered and then blocks until released.
type gateFS struct {
	store.OS
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gateFS) ReadFile(path string) ([]byte, error) {
	if g.armed.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.OS.ReadFile(path)
}

// TestDiskReadOutsideServerLock: while one Submit sits in the store's
// file read, the server mutex is free — Stats, Job and a Submit for a
// memory-resident key all return.
func TestDiskReadOutsideServerLock(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	onDisk, inMemory := inlineReq(fastIters), inlineReq(fastIters+1)
	a := newTestServer(t, Options{Workers: 1, StoreDir: dir})
	j, rerr := a.Submit(onDisk)
	if rerr != nil {
		t.Fatalf("Submit: %v", rerr)
	}
	waitDone(t, j)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	fs := &gateFS{entered: make(chan struct{}), release: make(chan struct{})}
	b := newTestServer(t, Options{Workers: 1, StoreDir: dir, StoreFS: fs})
	resident, rerr := b.Submit(inMemory)
	if rerr != nil {
		t.Fatalf("Submit: %v", rerr)
	}
	waitDone(t, resident)

	fs.armed.Store(true)
	// Deferred too, so a failure below cannot leave a Submit parked in the
	// read with the cleanup's Shutdown waiting behind it.
	release := sync.OnceFunc(func() { fs.armed.Store(false); close(fs.release) })
	defer release()
	blocked := make(chan *job, 1)
	go func() {
		j, rerr := b.Submit(onDisk)
		if rerr != nil {
			t.Errorf("Submit of the stored key: %v", rerr)
		}
		blocked <- j
	}()
	select {
	case <-fs.entered:
	case <-time.After(time.Minute):
		t.Fatal("the disk read never started")
	}
	returns := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { f(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s waits for a disk read in another Submit", what)
		}
	}
	returns("Stats", func() { b.Stats() })
	returns("Job", func() {
		if _, ok := b.Job(resident.key); !ok {
			t.Error("resident job not found")
		}
	})
	returns("Submit of a memory-resident key", func() {
		if j, rerr := b.Submit(inMemory); rerr != nil || !j.cached {
			t.Errorf("memory-resident submit: %v", rerr)
		}
	})
	release()
	select {
	case j := <-blocked:
		if j == nil || !j.cached || j.cycles <= 0 {
			t.Errorf("the stored key was not served from disk: %+v", j)
		}
	case <-time.After(time.Minute):
		t.Fatal("the blocked Submit never returned")
	}
	if got := b.Stats().Jobs.DiskHits; got != 1 {
		t.Errorf("DiskHits = %d, want 1", got)
	}
}

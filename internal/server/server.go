// Package server is warpsimd's core: a simulation-as-a-service job
// server over the deterministic engine. Jobs (registered kernels or
// inline ISA programs, plus a configuration) are validated with
// internal/analysis at admission, run on a bounded worker pool through
// internal/exp's guarded runner, and their results stored in a
// content-addressed LRU cache keyed by (program FNV, config hash,
// sim.Version) — so repeated submissions, the common case under heavy
// traffic, return instantly and byte-identically. A job's id is that
// content key: concurrent identical submissions collapse to one engine
// run (single-flight), the server tracks only queued and running jobs,
// and a finished job is answered from the cache tiers. Jobs run in
// admission order; the bounded queue is the only load shed — a
// submission that finds it full gets 429 with a Retry-After priced from
// the observed engine service time.
//
// With Options.StoreDir set, a persistent content-addressed store
// (internal/store) backs the in-memory cache as a second, durable tier:
// misses read through to disk (promoting hits into memory) and fresh
// engine results write through asynchronously. A result the persister
// has written survives a restart; a job queued or running at a crash,
// or a result acked but not yet written, is gone, and resubmitting the
// request recomputes the same bytes (the engine is deterministic and the
// key fixes program, configuration and engine version).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"warpsched/internal/exp"
	"warpsched/internal/metrics"
	"warpsched/internal/sim"
	"warpsched/internal/store"
)

// Options configures a Server. The zero value is usable: New fills
// every unset field with the documented default.
type Options struct {
	// Workers bounds the pool of goroutines running simulations
	// (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue; submissions beyond it are
	// rejected with HTTP 429 + Retry-After, the server's only load shed
	// (default 64).
	QueueDepth int
	// CacheBytes bounds the result cache's memory footprint
	// (default 256 MiB).
	CacheBytes int64
	// MaxJobCycles is the per-job watchdog ceiling: the default budget
	// for jobs that do not set max_cycles, and the upper bound for those
	// that do (default 10M cycles, the experiment harness's clamp).
	MaxJobCycles int64
	// MaxMemWords bounds inline programs' memory size (default 4M words
	// = 16 MiB per running job).
	MaxMemWords int
	// Check arms the runtime invariant checker and early hang aborts on
	// every job.
	Check bool
	// Journal is ignored: the server keeps no recovery journal (a job's id
	// is its content key, and a lost job is recomputed on resubmission).
	// The field stays only until the benchmark module stops setting it.
	Journal string
	// StoreDir, when non-empty, enables the persistent result store: a
	// durable content-addressed tier behind the in-memory cache, written
	// via temp-file + fsync + atomic rename, GC'd by access order, and
	// recovered (corrupt entries quarantined) at startup.
	StoreDir string
	// StoreBytes bounds the persistent store's on-disk footprint
	// (default 4 GiB).
	StoreBytes int64
	// StoreFS overrides the store's filesystem; the chaos harness
	// injects store.FaultFS here to simulate ENOSPC, torn writes and
	// failed renames. Nil means the real filesystem.
	StoreFS store.FS
	// Log, when non-nil, receives one line per notable server event.
	Log func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 256 << 20
	}
	if o.MaxJobCycles <= 0 {
		o.MaxJobCycles = 10_000_000
	}
	if o.MaxMemWords <= 0 {
		o.MaxMemWords = 4 << 20
	}
	return o
}

// jobState is a job's lifecycle position.
type jobState string

const (
	stateQueued  jobState = "queued"
	stateRunning jobState = "running"
	stateDone    jobState = "done"
)

// job is one admitted submission, addressed by its content key.
// Identical concurrent submissions share a single job (single-flight).
type job struct {
	key      string
	spec     exp.Spec
	state    jobState // guarded by Server.mu
	cached   bool     // result came from a cache tier, no engine run
	progress atomic.Int64
	admitted time.Time
	// cycles and err are the result's headline, all a status reads; the
	// manifest stays in the cache tiers (Server.Result), so a finished
	// job pins no result bytes. Set before done is closed.
	cycles int64
	err    string
	done   chan struct{}
}

// Server is the warpsimd daemon core. Create with New, expose via
// Handler, stop with Shutdown.
type Server struct {
	opt        Options
	cache      *Cache
	admitTable *admissionTable // request identity → full admission (admission.go)
	disk       *store.Store    // nil without StoreDir

	mu sync.Mutex
	// jobs holds the queued and running jobs by content key (single-flight),
	// so it never exceeds QueueDepth + Workers entries.
	jobs map[string]*job
	// queue carries admitted jobs to the workers in admission order. Its
	// capacity is QueueDepth, and it is sent to only under mu after the
	// length check, so a send never blocks; Shutdown closes it under mu.
	queue chan *job
	drain bool

	persistCh chan *CachedResult
	persistWG sync.WaitGroup

	wg      sync.WaitGroup
	start   time.Time
	running atomic.Int64

	latMu   sync.Mutex
	latency *metrics.Histogram
	svc     *metrics.Histogram // engine-run service time (no queueing)

	admitted, completed, failed, deduped   atomic.Int64
	rejectedFull, rejectedInvalid, engRuns atomic.Int64
	persisted, persistFailed, diskHits     atomic.Int64
}

// latencyBounds is a 1-2-5 log series from 100µs to 1000s, the bucket
// layout of the end-to-end job latency histogram (p50/p99 resolution
// within one series step).
func latencyBounds() []int64 {
	var out []int64
	for base := int64(100); base <= 100_000_000; base *= 10 {
		out = append(out, base, 2*base, 5*base)
	}
	return append(out, 1_000_000_000)
}

// New builds a server, opens the persistent store (quarantining any
// entries damaged since the last run), and starts the worker pool and
// the result persister.
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	s := &Server{
		opt:        opt,
		cache:      NewCache(opt.CacheBytes),
		admitTable: newAdmissionTable(admitTableBytes),
		jobs:       make(map[string]*job),
		queue:      make(chan *job, opt.QueueDepth),
		persistCh:  make(chan *CachedResult, opt.Workers),
		start:      time.Now(),
	}
	reg := metrics.NewRegistry()
	s.latency = reg.Histogram("server.latency_us", latencyBounds())
	s.svc = reg.Histogram("server.service_us", latencyBounds())

	if opt.StoreDir != "" {
		disk, rep, err := store.Open(opt.StoreDir, store.Options{
			MaxBytes: opt.StoreBytes, FS: opt.StoreFS, Log: opt.Log})
		if err != nil {
			return nil, fmt.Errorf("server: open store: %w", err)
		}
		s.disk = disk
		s.logf("store: %s recovered %d/%d entries (%d quarantined, %d evicted at open)",
			opt.StoreDir, rep.Recovered, rep.Scanned, len(rep.Quarantined), rep.EvictedAtOpen)
	}

	for i := 0; i < opt.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.persistWG.Add(1)
	go s.persister()
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.Log != nil {
		s.opt.Log(format, args...)
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// fetch looks a key up in both cache tiers: memory first, then the
// persistent store.
func (s *Server) fetch(key string) (*CachedResult, bool) {
	if res, ok := s.cache.Get(key); ok {
		return res, true
	}
	return s.fetchDisk(key)
}

// fetchDisk looks a key up in the persistent store, promoting a hit into
// memory so the bytes served stay identical across tiers (the stored
// payload is the manifest verbatim).
func (s *Server) fetchDisk(key string) (*CachedResult, bool) {
	if s.disk == nil {
		return nil, false
	}
	payload, ok := s.disk.Get(key)
	if !ok {
		return nil, false
	}
	res, err := resultFromManifest(key, payload)
	if err != nil {
		// Checksum-valid but semantically unparsable: treat as a miss and
		// leave the entry for operator inspection.
		s.logf("store: entry %s unparsable: %v", key, err)
		return nil, false
	}
	s.diskHits.Add(1)
	s.cache.Put(res)
	return res, true
}

// resultFromManifest rebuilds a CachedResult from a persisted manifest:
// the payload bytes are kept verbatim (byte-identical serving) and the
// headline cycles/error are recovered from the manifest's single run
// through metrics.DecodeHeadline, which reads a stored manifest in one
// pass and decodes only those two fields. The whole document is still
// validated, and a run count other than one, a non-integer cycles or a
// non-string err is still an error; a wrong type in a field the server
// never reads (a counter map, say) is not noticed — a checksum-valid
// entry is bytes buildResult encoded, so Put cannot have written one.
func resultFromManifest(key string, payload []byte) (*CachedResult, error) {
	h, err := metrics.DecodeHeadline(payload)
	if err != nil {
		return nil, err
	}
	if h.Runs != 1 {
		return nil, fmt.Errorf("want 1 run, got %d", h.Runs)
	}
	return &CachedResult{Key: key, Cycles: h.Cycles, Err: h.Err, Manifest: payload}, nil
}

// runJob executes one queued job (or resolves it from a cache tier — a
// twin that finished while this one was admitted may have reached the
// store by now), stores the result, and wakes every waiter.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	j.state = stateRunning
	s.mu.Unlock()
	s.running.Add(1)
	defer s.running.Add(-1)

	res, cached := s.fetch(j.key)
	fresh := false
	if !cached {
		s.engRuns.Add(1)
		t0 := time.Now()
		// Jobs 1: this worker is the pool. Execute is exp's panic barrier.
		out := exp.Cfg{Jobs: 1, Check: s.opt.Check}.Execute([]exp.Spec{j.spec})[0]
		s.latMu.Lock()
		s.svc.Observe(time.Since(t0).Microseconds())
		s.latMu.Unlock()
		res = buildResult(j.key, j.spec, out)
		s.cache.Put(res)
		fresh = true
	}
	if res.Err != "" {
		s.failed.Add(1)
	}
	us := time.Since(j.admitted).Microseconds()
	s.latMu.Lock()
	s.latency.Observe(us)
	s.latMu.Unlock()
	s.finish(j, res, cached, fresh)
	s.logf("job %s done: cycles=%d err=%q (%.1f ms)",
		j.key, res.Cycles, res.Err, float64(us)/1e3)
}

// finish publishes a job's result, drops the job from the map (from here
// on GET /v1/jobs/{id} answers from the cache tiers, which runJob has
// already filled) and, on a store-backed server, hands a fresh engine
// result to the persister.
func (s *Server) finish(j *job, res *CachedResult, cached, fresh bool) {
	s.mu.Lock()
	j.cycles, j.err = res.Cycles, res.Err
	j.cached = cached
	j.state = stateDone
	delete(s.jobs, j.key)
	s.mu.Unlock()
	close(j.done)
	s.completed.Add(1)

	if fresh && s.disk != nil {
		s.persistCh <- res
	}
}

// persister is the single write-behind goroutine draining fresh results
// into the persistent store. Persist failures (e.g. ENOSPC) are logged
// and counted: the result remains served from memory, and losing it at
// a crash is indistinguishable from an eviction — the job re-runs
// deterministically on resubmission.
func (s *Server) persister() {
	defer s.persistWG.Done()
	for res := range s.persistCh {
		if err := s.disk.Put(res.Key, res.Manifest); err != nil {
			s.persistFailed.Add(1)
			s.logf("store: persist %s: %v", res.Key, err)
		} else {
			s.persisted.Add(1)
		}
	}
}

// Shutdown drains the server: admission stops (503), queued and running
// jobs finish, then dirty store writes flush. Returns ctx.Err when the
// deadline expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.drain {
		s.mu.Unlock()
		return nil
	}
	s.drain = true
	close(s.queue) // all sends happen under mu with drain false
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()        // workers drain the queue...
		close(s.persistCh) // ...then no more persist sends...
		s.persistWG.Wait() // ...and the store flushes
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfterSeconds rounds a wait estimate up to whole seconds for a
// Retry-After header, minimum 1.
func retryAfterSeconds(d time.Duration) int {
	return max(1, int((d+time.Second-1)/time.Second))
}

// estimateStartDelay estimates how long a job admitted now would queue
// before starting: full waves of already-queued work across the worker
// pool, each lasting the observed p50 engine service time. It prices the
// queue-full Retry-After; before any engine run has been observed it is
// zero, and the hint is the one-second minimum.
func (s *Server) estimateStartDelay() time.Duration {
	s.latMu.Lock()
	n := s.svc.Count()
	p50 := s.svc.Quantile(0.50)
	s.latMu.Unlock()
	if n == 0 {
		return 0
	}
	waves := (len(s.queue) + s.opt.Workers - 1) / s.opt.Workers
	return time.Duration(waves) * time.Duration(p50) * time.Microsecond
}

// Submit admits one job: validation (memoised, see admission.go),
// two-tier cache lookup, single-flight attach, and enqueue — or 429 when
// the queue is full. It returns the job (already done, and tracked
// nowhere, on a cache or store hit) or a *RequestError carrying the HTTP
// status.
func (s *Server) Submit(req *JobRequest) (*job, *RequestError) {
	spec, key, rerr := s.admit(req)
	if rerr != nil {
		s.rejectedInvalid.Add(1)
		return nil, rerr
	}
	// Both tiers lock themselves, so the lookup — on a disk hit an open, a
	// read, a checksum and a decode — runs before s.mu is taken and stalls
	// no other admission, status poll or finishing worker.
	res, hit := s.fetch(key)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drain {
		return nil, &RequestError{Status: http.StatusServiceUnavailable, Msg: "server is draining"}
	}
	if !hit {
		// An in-flight twin may have finished between the miss and the
		// lock: it is out of the job map by now, and its result is in
		// memory (if already evicted, runJob looks through both tiers
		// again before it runs the engine). Not a second counted lookup.
		res, hit = s.cache.lru.peek(key)
	}
	if hit {
		// Admission-time hit (either tier): the job is born finished; no
		// map entry, no queue slot, no engine run.
		j := &job{key: key, state: stateDone, cached: true,
			cycles: res.Cycles, err: res.Err, done: make(chan struct{})}
		close(j.done)
		s.admitted.Add(1)
		return j, nil
	}
	if inflight, ok := s.jobs[key]; ok {
		// Single-flight: an identical job is already queued or running;
		// this submission shares it (same id, one engine run).
		s.deduped.Add(1)
		return inflight, nil
	}
	if len(s.queue) >= s.opt.QueueDepth {
		s.rejectedFull.Add(1)
		return nil, &RequestError{Status: http.StatusTooManyRequests,
			Msg:        fmt.Sprintf("queue full (%d jobs)", s.opt.QueueDepth),
			RetryAfter: retryAfterSeconds(s.estimateStartDelay())}
	}
	j := &job{key: key, spec: spec, state: stateQueued,
		admitted: time.Now(), done: make(chan struct{})}
	j.spec.Progress = &j.progress
	s.jobs[key] = j
	s.queue <- j // below capacity, checked above under mu: never blocks
	s.admitted.Add(1)
	return j, nil
}

// Job returns the status of the job whose id (its content key) is given:
// from the job map while it is queued or running, otherwise from the
// cache tiers as a finished, cached job. The memory tier is peeked, not
// counted, so cache statistics move only on submissions. It reports
// false for an id no job or stored result answers to.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if ok {
		return s.status(j), true
	}
	// runJob fills the cache before finish drops the job from the map, so
	// a job that finished since the lock was released is found here.
	res, ok := s.cache.lru.peek(id)
	if !ok {
		res, ok = s.fetchDisk(id)
	}
	if !ok {
		return JobStatus{}, false
	}
	return JobStatus{ID: id, Key: id, State: string(stateDone), Cached: true,
		Cycles: res.Cycles, Err: res.Err}, true
}

// Result returns the result at the given content address from either
// cache tier.
func (s *Server) Result(key string) (*CachedResult, bool) {
	return s.fetch(key)
}

// Stats is the GET /v1/stats payload.
type Stats struct {
	// UptimeS is seconds since the server started.
	UptimeS float64 `json:"uptime_s"`
	// Workers is the pool size; Running how many are mid-simulation.
	Workers int   `json:"workers"`
	Running int64 `json:"running"`
	// QueueDepth/QueueCapacity describe the admission queue.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Jobs counts admissions and outcomes since start.
	Jobs JobStats `json:"jobs"`
	// Cache is the in-memory result cache's occupancy and hit statistics.
	Cache CacheStats `json:"cache"`
	// Admission is the admission table's occupancy and hit statistics:
	// a hit is a request admitted without parsing, analysing or hashing
	// anything (see admission.go). Its counts are its own, never folded
	// into Cache's.
	Admission CacheStats `json:"admission"`
	// Store is the persistent tier's occupancy and health; nil when the
	// server runs without one.
	Store *store.Stats `json:"store,omitempty"`
	// LatencyUS summarizes end-to-end job latency (admission to result,
	// engine runs and queueing included; admission-time cache hits are
	// not observed here — they never enter the queue).
	LatencyUS LatencyStats `json:"latency_us"`
	// ServiceUS summarizes pure engine service time (no queueing), the
	// signal behind the queue-full Retry-After estimate.
	ServiceUS LatencyStats `json:"service_us"`
}

// JobStats counts job lifecycle events since server start.
type JobStats struct {
	// Admitted jobs entered the system (including admission-time cache
	// hits); Deduped submissions attached to an in-flight identical job.
	Admitted int64 `json:"admitted"`
	Deduped  int64 `json:"deduped"`
	// Completed jobs finished (Failed of them with a simulation error).
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// EngineRuns counts actual simulations — the cache and single-flight
	// savings are Admitted+Deduped-EngineRuns.
	EngineRuns int64 `json:"engine_runs"`
	// Persisted results reached the durable store; PersistFailed writes
	// errored (the result stays served from memory). DiskHits counts
	// lookups answered by the persistent tier.
	Persisted     int64 `json:"persisted"`
	PersistFailed int64 `json:"persist_failed"`
	DiskHits      int64 `json:"disk_hits"`
	// RejectedQueueFull and RejectedInvalid were turned away at admission
	// (HTTP 429 and 400/422 respectively).
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	RejectedInvalid   int64 `json:"rejected_invalid"`
	// DeadlineShed and RejectedDegraded are always 0: the deadline shed
	// and the saturation breaker that counted them are gone. The fields
	// stay only until the benchmark module stops reading them.
	DeadlineShed     int64 `json:"deadline_shed"`
	RejectedDegraded int64 `json:"rejected_degraded"`
}

// LatencyStats summarizes a latency histogram in microseconds.
type LatencyStats struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// P50 and P99 are bucketed upper-bound estimates; Max is exact.
	P50 int64 `json:"p50"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
	// MeanUS is the exact arithmetic mean.
	MeanUS float64 `json:"mean"`
}

// histStats snapshots one histogram; call with latMu held.
func histStats(h *metrics.Histogram) LatencyStats {
	st := LatencyStats{Count: h.Count(), P50: h.Quantile(0.50),
		P99: h.Quantile(0.99), Max: h.Quantile(1.0)}
	if st.Count > 0 {
		st.MeanUS = float64(h.Sum()) / float64(st.Count)
	}
	return st
}

// Stats returns a point-in-time snapshot of server health.
func (s *Server) Stats() Stats {
	s.latMu.Lock()
	lat := histStats(s.latency)
	svc := histStats(s.svc)
	s.latMu.Unlock()
	st := Stats{
		UptimeS:       time.Since(s.start).Seconds(),
		Workers:       s.opt.Workers,
		Running:       s.running.Load(),
		QueueDepth:    len(s.queue),
		QueueCapacity: s.opt.QueueDepth,
		Jobs: JobStats{
			Admitted: s.admitted.Load(), Deduped: s.deduped.Load(),
			Completed: s.completed.Load(), Failed: s.failed.Load(),
			EngineRuns:        s.engRuns.Load(),
			Persisted:         s.persisted.Load(),
			PersistFailed:     s.persistFailed.Load(),
			DiskHits:          s.diskHits.Load(),
			RejectedQueueFull: s.rejectedFull.Load(),
			RejectedInvalid:   s.rejectedInvalid.Load(),
		},
		Cache:     s.cache.Stats(),
		Admission: s.admitTable.stats(),
		LatencyUS: lat,
		ServiceUS: svc,
	}
	if s.disk != nil {
		ds := s.disk.Stats()
		st.Store = &ds
	}
	return st
}

// buildResult renders one outcome into its cacheable form: headline
// cycles/error plus the full schema-2 manifest (per-SM counter
// resolution, like cmd/warpsim -stats-json) serialized once so every
// future hit serves identical bytes — from memory or from the
// persistent store, which keeps exactly these bytes as its payload.
func buildResult(key string, spec exp.Spec, out exp.Outcome) *CachedResult {
	rec := exp.SMRecord(spec, out)
	r := &CachedResult{Key: key, Err: rec.Err, Cycles: rec.Cycles}
	m := metrics.NewManifest("warpsimd", map[string]any{
		"kernel": rec.Kernel, "gpu": rec.GPU, "sched": rec.Sched,
		"bows": rec.BOWS, "ddos": rec.DDOS, "max_cycles": spec.MaxCycles,
		"sim_version": sim.Version, "cache_key": key,
	})
	// Add cannot fail on a fresh manifest's first record; a marshal
	// failure would be a programming error in the metrics layer.
	if err := m.Add(rec); err != nil {
		panic(fmt.Sprintf("server: manifest add: %v", err))
	}
	m.Sort()
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		panic(fmt.Sprintf("server: manifest marshal: %v", err))
	}
	r.Manifest = append(data, '\n')
	return r
}

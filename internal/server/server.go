// Package server is warpsimd's core: a simulation-as-a-service job
// server over the deterministic engine. Jobs (registered kernels or
// inline ISA programs, plus a configuration) are validated with
// internal/analysis at admission, run on a bounded worker pool through
// internal/exp's guarded runner, and their results stored in a
// content-addressed LRU cache keyed by (program FNV, config hash,
// sim.Version) — so repeated submissions, the common case under heavy
// traffic, return instantly and byte-identically. Concurrent identical
// submissions collapse to one engine run (single-flight), and an
// append-only journal makes queued and running jobs recoverable across
// restarts. Jobs run in admission order; the bounded queue is the only
// load shed — a submission that finds it full gets 429 with a
// Retry-After priced from the observed engine service time.
//
// With Options.StoreDir set, a persistent content-addressed store
// (internal/store) backs the in-memory cache as a second, durable tier:
// misses read through to disk (promoting hits into memory), fresh engine
// results write through asynchronously, and the journal's done marker is
// written only after the result is durable — so every acked result
// either survives restart on disk or is re-run deterministically from
// the journal.
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
	// Journal, when non-empty, is the path of the append-only recovery
	// journal: admitted jobs are logged before they run and marked done
	// after, and on startup unfinished entries are re-enqueued.
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

// job is one admitted submission. Identical concurrent submissions
// share a single job (single-flight): ids lists every journaled id the
// job answers for.
type job struct {
	ids      []string
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

// persistReq is one fresh result on its way to the durable store; the
// job's journal ids ride along so the done markers are written only
// after the bytes are on disk.
type persistReq struct {
	res *CachedResult
	ids []string
}

// Server is the warpsimd daemon core. Create with New, expose via
// Handler, stop with Shutdown.
type Server struct {
	opt        Options
	cache      *Cache
	admitTable *admissionTable // request identity → full admission (admission.go)
	disk       *store.Store    // nil without StoreDir
	jour       *journal

	mu     sync.Mutex
	jobs   map[string]*job // every admitted job, by id
	byKey  map[string]*job // queued/running jobs, by cache key (single-flight)
	nextID int64
	queue  *jobQueue
	drain  bool

	persistCh chan persistReq
	persistWG sync.WaitGroup

	wg      sync.WaitGroup
	start   time.Time
	running atomic.Int64

	latMu   sync.Mutex
	latency *metrics.Histogram
	svc     *metrics.Histogram // engine-run service time (no queueing)

	admitted, completed, failed, deduped   atomic.Int64
	rejectedFull, rejectedInvalid, engRuns atomic.Int64
	recovered                              atomic.Int64
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
// entries damaged since the last run), replays the recovery journal
// (re-enqueueing jobs that were admitted but unfinished when the
// previous incarnation died), and starts the worker pool and the result
// persister.
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	s := &Server{
		opt:        opt,
		cache:      NewCache(opt.CacheBytes),
		admitTable: newAdmissionTable(admitTableBytes),
		jobs:       make(map[string]*job),
		byKey:      make(map[string]*job),
		queue:      newJobQueue(),
		persistCh:  make(chan persistReq, opt.Workers),
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

	var pending []journalAdmit
	if opt.Journal != "" {
		var err error
		s.jour, pending, s.nextID, err = openJournal(opt.Journal)
		if err != nil {
			return nil, fmt.Errorf("server: open journal: %w", err)
		}
	}
	for _, a := range pending {
		s.recover(a)
	}
	for i := 0; i < opt.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.persistWG.Add(1)
	go s.persister()
	return s, nil
}

// recover re-admits one journaled job under its original id. Requests
// that no longer validate (e.g. a ceiling was lowered) are dropped with
// a done marker so they stop reappearing.
func (s *Server) recover(a journalAdmit) {
	spec, rerr := s.opt.Resolve(a.Req)
	if rerr != nil {
		s.logf("journal: dropping unrecoverable job %s: %v", a.ID, rerr)
		s.journalDone(a.ID)
		return
	}
	key := CacheKey(spec)
	if dup, ok := s.byKey[key]; ok {
		// Two unfinished admits of the same configuration: attach the id
		// to the earlier job and mark this admit resolved.
		dup.ids = append(dup.ids, a.ID)
		s.jobs[a.ID] = dup
		s.journalDone(a.ID)
		return
	}
	j := &job{ids: []string{a.ID}, key: key, spec: spec, state: stateQueued,
		admitted: time.Now(), done: make(chan struct{})}
	j.spec.Progress = &j.progress
	s.jobs[a.ID] = j
	s.byKey[key] = j
	s.queue.Push(j)
	s.recovered.Add(1)
	s.logf("journal: recovered job %s (%s)", a.ID, key)
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.Log != nil {
		s.opt.Log(format, args...)
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// fetch looks a key up in both cache tiers: memory first, then the
// persistent store, promoting a disk hit into memory so the bytes
// served stay identical across tiers (the stored payload is the
// manifest verbatim).
func (s *Server) fetch(key string) (*CachedResult, bool) {
	if res, ok := s.cache.Get(key); ok {
		return res, true
	}
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
// headline cycles/error are recovered from the manifest's single run.
// Only those two fields are decoded. json.Unmarshal still validates the
// whole document, and a run count other than one, a non-integer cycles
// or a non-string err is still an error; a wrong type in a field the
// server never reads (a counter map, say) is no longer noticed — a
// checksum-valid entry is bytes buildResult encoded, so Put cannot have
// written one.
func resultFromManifest(key string, payload []byte) (*CachedResult, error) {
	var m struct {
		Runs []struct {
			Cycles int64  `json:"cycles"`
			Err    string `json:"err"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, err
	}
	if len(m.Runs) != 1 {
		return nil, fmt.Errorf("want 1 run, got %d", len(m.Runs))
	}
	return &CachedResult{Key: key, Cycles: m.Runs[0].Cycles,
		Err: m.Runs[0].Err, Manifest: payload}, nil
}

// runJob executes one queued job (or resolves it from a cache tier —
// the recovery path can enqueue a key that a later run already filled),
// stores the result, and wakes every waiter.
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
	s.logf("job %s done: %s cycles=%d err=%q (%.1f ms)",
		j.ids[0], j.key, res.Cycles, res.Err, float64(us)/1e3)
}

// finish publishes a job's result and settles its journal entries. A
// fresh engine result on a store-backed server is handed to the
// persister, which writes the journal done markers only after the bytes
// are durable — the acked-implies-durable half of the recovery
// invariant (the other half: an undurable job still has its journal
// admit, so a crash re-runs it deterministically).
func (s *Server) finish(j *job, res *CachedResult, cached, fresh bool) {
	s.mu.Lock()
	j.cycles, j.err = res.Cycles, res.Err
	j.cached = cached
	j.state = stateDone
	delete(s.byKey, j.key)
	s.mu.Unlock()
	close(j.done)
	s.completed.Add(1)

	if fresh && s.disk != nil {
		s.persistCh <- persistReq{res: res, ids: j.ids}
		return
	}
	for _, id := range j.ids {
		s.journalDone(id)
	}
}

// persister is the single write-behind goroutine draining fresh results
// into the persistent store. Persist failures (e.g. ENOSPC) are logged
// and counted but still settle the journal: the result remains served
// from memory, and losing it at a crash is indistinguishable from an
// eviction — the job re-runs deterministically on resubmission.
func (s *Server) persister() {
	defer s.persistWG.Done()
	for p := range s.persistCh {
		if err := s.disk.Put(p.res.Key, p.res.Manifest); err != nil {
			s.persistFailed.Add(1)
			s.logf("store: persist %s: %v", p.res.Key, err)
		} else {
			s.persisted.Add(1)
		}
		for _, id := range p.ids {
			s.journalDone(id)
		}
	}
}

func (s *Server) journalDone(id string) {
	if s.jour == nil {
		return
	}
	if err := s.jour.done(id); err != nil {
		s.logf("journal: done %s: %v", id, err)
	}
}

// Shutdown drains the server: admission stops (503), queued and running
// jobs finish, dirty store writes flush, then the journal closes. A
// journal-backed server killed before the drain completes recovers the
// unfinished jobs on next start. Returns ctx.Err when the deadline
// expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.drain {
		s.mu.Unlock()
		return nil
	}
	s.drain = true
	s.queue.Close() // all pushes happen under mu with drain false
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()        // workers drain the queue...
		close(s.persistCh) // ...then no more persist sends...
		s.persistWG.Wait() // ...and the store flushes before the journal
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.jour != nil {
		return s.jour.Close()
	}
	return nil
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
	waves := (s.queue.Len() + s.opt.Workers - 1) / s.opt.Workers
	return time.Duration(waves) * time.Duration(p50) * time.Microsecond
}

// Submit admits one job: validation (memoised, see admission.go),
// two-tier cache lookup, single-flight attach, and enqueue — or 429 when
// the queue is full. It returns the job (possibly already done, on a
// cache or store hit) or a *RequestError carrying the HTTP status.
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
		// lock: it is out of byKey by now, and its result is in memory
		// (if already evicted, runJob looks through both tiers again
		// before it runs the engine). Not a second counted lookup.
		res, hit = s.cache.lru.peek(key)
	}
	if hit {
		// Admission-time hit (either tier): the job is born finished; no
		// queue slot, no journal entry, no engine run.
		id := s.newID()
		j := &job{ids: []string{id}, key: key, spec: spec, state: stateDone,
			cached: true, admitted: time.Now(), cycles: res.Cycles, err: res.Err,
			done: make(chan struct{})}
		close(j.done)
		s.jobs[id] = j
		s.admitted.Add(1)
		return j, nil
	}
	if inflight, ok := s.byKey[key]; ok {
		// Single-flight: an identical job is already queued or running;
		// this submission shares it (same id, one engine run).
		s.deduped.Add(1)
		return inflight, nil
	}
	if s.queue.Len() >= s.opt.QueueDepth {
		s.rejectedFull.Add(1)
		return nil, &RequestError{Status: http.StatusTooManyRequests,
			Msg:        fmt.Sprintf("queue full (%d jobs)", s.opt.QueueDepth),
			RetryAfter: retryAfterSeconds(s.estimateStartDelay())}
	}
	id := s.newID()
	j := &job{ids: []string{id}, key: key, spec: spec, state: stateQueued,
		admitted: time.Now(), done: make(chan struct{})}
	j.spec.Progress = &j.progress
	s.jobs[id] = j
	s.byKey[key] = j
	if s.jour != nil {
		if err := s.jour.admit(id, req); err != nil {
			delete(s.jobs, id)
			delete(s.byKey, key)
			return nil, &RequestError{Status: http.StatusInternalServerError,
				Msg: fmt.Sprintf("journal write failed: %v", err)}
		}
	}
	s.queue.Push(j)
	s.admitted.Add(1)
	return j, nil
}

func (s *Server) newID() string {
	s.nextID++
	return fmt.Sprintf("j%d", s.nextID)
}

// Job returns the admitted job with the given id, if any.
func (s *Server) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
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
	// Journal is the recovery journal's size and last-compaction summary;
	// nil when the server runs without one.
	Journal *JournalStats `json:"journal,omitempty"`
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
	// Recovered jobs were replayed from the journal at startup.
	Recovered int64 `json:"recovered"`
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
		QueueDepth:    s.queue.Len(),
		QueueCapacity: s.opt.QueueDepth,
		Jobs: JobStats{
			Admitted: s.admitted.Load(), Deduped: s.deduped.Load(),
			Completed: s.completed.Load(), Failed: s.failed.Load(),
			EngineRuns: s.engRuns.Load(), Recovered: s.recovered.Load(),
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
	if s.jour != nil {
		js := s.jour.statsSnapshot()
		st.Journal = &js
	}
	return st
}

// buildResult renders one outcome into its cacheable form: headline
// cycles/error plus the full schema-2 manifest (per-SM counter
// resolution, like cmd/warpsim -stats-json) serialized once so every
// future hit serves identical bytes — from memory or from the
// persistent store, which keeps exactly these bytes as its payload.
func buildResult(key string, spec exp.Spec, out exp.Outcome) *CachedResult {
	rec := exp.Record(spec, out)
	r := &CachedResult{Key: key, Err: rec.Err, Cycles: rec.Cycles}
	m := metrics.NewManifest("warpsimd", map[string]any{
		"kernel": rec.Kernel, "gpu": rec.GPU, "sched": rec.Sched,
		"bows": rec.BOWS, "ddos": rec.DDOS, "max_cycles": spec.MaxCycles,
		"sim_version": sim.Version, "cache_key": key,
	})
	if res := out.Res; res != nil && res.Metrics != nil {
		rec.Counters = res.Metrics.Counters
		rec.Derived = res.Metrics.Gauges
	}
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

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"slices"
	"time"

	"warpsched/internal/exp"
	"warpsched/internal/kernels"
	"warpsched/internal/metrics"
	"warpsched/internal/server"
)

// Inline programs of the service mix. Their trip counts arrive as kernel
// parameters, so the seed changes the cache key and the run length but
// never the program text; both pass the admission-time analyzers.
const (
	aluLoopSrc = `
  ld.param %r2, 0
  mov %r1, 0
loop:
  add %r1, %r1, 1
  setp.lt %p1, %r1, %r2
  @%p1 bra loop
  exit
`
	vecLoopSrc = `
  ld.param %r10, 0
  ld.param %r2, 1
  mov %r1, %gtid
  ld.global %r3, [%r10+%r1]
  mov %r4, 0
loop:
  add %r3, %r3, %r1
  add %r4, %r4, 1
  setp.lt %p1, %r4, %r2
  @%p1 bra loop
  st.global [%r10+%r1], %r3
  exit
`
)

// serviceMix is the distinct jobs a service workload submits, with the
// content address each resolves to.
type serviceMix struct {
	reqs []server.JobRequest
	keys []string
}

// buildMix generates the job mix: registered quick kernels across
// schedulers and back-off modes (cheap engine runs, so the service's own
// cost shows in the latency) plus inline programs whose parameters come
// from the seed, which put isa.Parse and both analyzers on the admission
// path. 96 jobs; a handful with tiny.
func buildMix(seed int64, tiny bool) (*serviceMix, error) {
	var reqs []server.JobRequest
	add := func(kernel, sched, bows string) {
		reqs = append(reqs, server.JobRequest{Kernel: kernel, Wait: true,
			Config: server.JobConfig{SMs: 2, Quick: true, Sched: sched, BOWS: bows}})
	}
	for i, k := range kernels.QuickSyncFreeSuite() {
		if tiny && i >= 2 {
			break
		}
		for _, sched := range []string{"LRR", "GTO", "CAWA"} {
			add(k.Name, sched, "off")
		}
		add(k.Name, "GTO", "ddos")
	}
	if !tiny {
		for _, bows := range []string{"off", "ddos", "static"} {
			for _, k := range []string{"TB", "ST"} {
				add(k, "GTO", bows)
				add(k, "CAWA", bows)
			}
			add("HT", "GTO", bows)
		}
	}
	// The trip counts are a fixed multiset dealt out by the seed, so every
	// seed submits the same total work under different keys.
	rng := rand.New(rand.NewSource(seed))
	inline := 25
	if tiny {
		inline = 2
	}
	for i, p := range rng.Perm(inline) {
		iters := uint32(200 + 100*p + int(rng.Int31n(50)))
		req := server.JobRequest{Name: fmt.Sprintf("alu%d", i), Source: aluLoopSrc, Wait: true,
			GridCTAs: 2, CTAThreads: 64, MemWords: 64, Params: []uint32{iters},
			Config: server.JobConfig{SMs: 1}}
		if i%2 == 1 {
			req = server.JobRequest{Name: fmt.Sprintf("vec%d", i), Source: vecLoopSrc, Wait: true,
				GridCTAs: 2, CTAThreads: 64, MemWords: 256, Params: []uint32{0, iters},
				Config: server.JobConfig{SMs: 1}}
		}
		reqs = append(reqs, req)
	}
	m := &serviceMix{reqs: reqs}
	for i := range reqs {
		spec, rerr := (server.Options{}).Resolve(&reqs[i])
		if rerr != nil {
			return nil, fmt.Errorf("service mix job %d: %s", i, rerr.Msg)
		}
		m.keys = append(m.keys, server.CacheKey(spec))
	}
	return m, nil
}

// service is an in-process warpsimd behind a loopback listener, driven
// through the hardened client exactly as cmd/warpload drives it.
type service struct {
	srv       *server.Server
	http      *http.Server
	transport *http.Transport
	cli       *server.Client
}

// startService opens a server on dir (store and journal inside it).
func startService(dir string, cacheBytes int64) (*service, error) {
	srv, err := server.New(server.Options{Workers: 1, CacheBytes: cacheBytes,
		StoreDir: filepath.Join(dir, "store"), Journal: filepath.Join(dir, "journal.jsonl")})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, http: &http.Server{Handler: srv.Handler()},
		transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	go s.http.Serve(ln) // returns when stop closes the listener
	s.cli = server.NewClient("http://"+ln.Addr().String(), server.ClientOptions{
		HTTP: &http.Client{Transport: s.transport}})
	return s, nil
}

// stop drains the server: HTTP first, then the job queue, the
// write-behind store queue and the journal.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.transport.CloseIdleConnections()
	if err := s.http.Shutdown(ctx); err != nil {
		return err
	}
	return s.srv.Shutdown(ctx)
}

// drive submits mix.reqs[order[i]] for every i from one client, closed
// loop: the next request goes out when the last one has returned. cached
// is the Cached flag every reply must carry; first numbers the phase's
// requests within the pass.
func (s *service) drive(r *run, rec *recorder, mix *serviceMix, order []int, cached bool, first int) pass {
	lat := make([]time.Duration, len(order))
	passNo := len(r.passes)
	l := rec.lane()
	t0 := time.Now()
	l.begin("bench.client", int64(passNo))
	for i, j := range order {
		l.begin("server.submit", int64(passNo)<<32|int64(first+i))
		t := time.Now()
		st, err := s.cli.Submit(context.Background(), &mix.reqs[j])
		lat[i] = time.Since(t)
		l.end()
		switch {
		case err != nil:
			r.fail("request %d (job %d): %v", first+i, j, err)
		case st.Err != "":
			r.fail("request %d (job %d): job failed: %s", first+i, j, st.Err)
		case st.Key != mix.keys[j]:
			r.fail("request %d (job %d): served key %s, want %s", first+i, j, st.Key, mix.keys[j])
		case st.Cached != cached:
			r.fail("request %d (job %d): cached=%v, want %v", first+i, j, st.Cached, cached)
		}
	}
	l.end()
	return pass{wall: time.Since(t0), lat: lat, traced: rec != nil}
}

// fetchAll reads every key's result manifest back from the server.
func (s *service) fetchAll(r *run, rec *recorder, mix *serviceMix) [][]byte {
	l := rec.lane()
	l.begin("bench.verify", int64(len(r.passes)))
	defer l.end()
	out := make([][]byte, len(mix.keys))
	for i, key := range mix.keys {
		l.begin("server.result", int64(i))
		data, err := s.cli.Result(context.Background(), key)
		l.end()
		r.attempted++
		if err != nil {
			r.fail("result %s: %v", key, err)
		}
		out[i] = data
	}
	return out
}

// verifyDirect re-runs every job of the mix directly on the engine (the
// resolution path the daemon admits with) and requires the served
// manifest to carry the same cycles and counter snapshot — the service
// must be a transparent cache over the deterministic engine.
func verifyDirect(r *run, mix *serviceMix, served [][]byte) {
	for i := range mix.reqs {
		r.attempted++
		spec, rerr := (server.Options{}).Resolve(&mix.reqs[i])
		if rerr != nil {
			r.fail("verify job %d: resolve: %s", i, rerr.Msg)
			continue
		}
		var m metrics.Manifest
		if err := json.Unmarshal(served[i], &m); err != nil || len(m.Runs) != 1 {
			r.fail("verify job %d: served manifest unreadable: %v", i, err)
			continue
		}
		out := exp.Cfg{Jobs: 1}.Execute([]exp.Spec{spec})[0]
		switch {
		case out.Err != nil:
			r.fail("verify job %d: direct run: %v", i, out.Err)
		case out.Res.Stats.Cycles != m.Runs[0].Cycles:
			r.fail("verify job %d: served %d cycles, direct run %d", i, m.Runs[0].Cycles, out.Res.Stats.Cycles)
		case !reflect.DeepEqual(out.Res.Metrics.Counters, m.Runs[0].Counters):
			r.fail("verify job %d: served counters differ from a direct run", i)
		}
	}
}

// sameBytes requires two sets of served manifests to be byte-identical.
func sameBytes(r *run, what string, a, b [][]byte) {
	for i := range a {
		r.attempted++
		if !bytes.Equal(a[i], b[i]) {
			r.fail("%s: job %d serves different bytes", what, i)
		}
	}
}

// Requests of the hit and the read-through phase of one service pass.
const (
	warmRequests  = 4000
	spillRequests = 2000
)

// serviceTraffic is the life of one warpsimd, a life a pass, in three
// phases. Cold: a fresh server on an empty store and journal answers
// every job of the mix once, the miss path from admission through the
// queue, the engine and the manifest encoder to the write-behind
// store.Put and the journal's done marker. Warm: seeded random requests
// over the keys now cached, so the engine and the store do nothing and
// only admission, the memory cache and JSON over HTTP are measured.
// Spill: the server restarts (untimed) on the full store with a memory
// cache an eighth of the mix, and a cyclic key order defeats the LRU, so
// every request is a verified disk read, a promote and an evict.
//
// A server per pass also keeps the passes alike. warpsimd keeps every
// admitted job, with the bytes it served, for the life of the process
// (4.5 KB a request when it reads through), so a server that has answered
// a slice is a slower one than it was, and slices against one long-lived
// server drift apart by 15%.
func serviceTraffic(r *run) error {
	warmN, spillN := warmRequests, spillRequests
	if r.tiny {
		warmN, spillN = 300, 150
	}
	var first [][]byte     // what the first pass served from memory
	var phase [3][]float64 // seconds per request of each phase, untraced passes
	var p99 []float64      // ms, untraced passes
	count := func(name string, v int64) { r.layer[name] += float64(v) }
	r.startClock()
	for r.more() {
		rec := r.passRecorder()
		dir := filepath.Join(r.tmp, fmt.Sprintf("life%d", len(r.passes)))
		t0 := time.Now()
		mix, err := buildMix(r.seed, r.tiny)
		if err != nil {
			return err
		}
		s, err := startService(dir, 0)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(t0))
		rng := rand.New(rand.NewSource(r.seed))
		once := rng.Perm(len(mix.reqs))
		random := make([]int, warmN)
		for i := range random {
			random[i] = rng.Intn(len(mix.reqs))
		}
		cyclic := make([]int, spillN)
		for i := range cyclic {
			cyclic[i] = once[i%len(once)]
		}

		st0 := s.srv.Stats()
		cold := s.drive(r, rec, mix, once, false, 0)
		st1 := s.srv.Stats()
		warm := s.drive(r, rec, mix, random, true, len(once))
		st2 := s.srv.Stats()
		if n := st1.Jobs.EngineRuns - st0.Jobs.EngineRuns; n != int64(len(once)) {
			r.fail("shape: the cold phase made %d engine runs, want %d", n, len(once))
		}
		if n := st2.Jobs.EngineRuns - st1.Jobs.EngineRuns; n != 0 {
			r.fail("shape: the warm phase made %d engine runs, want 0", n)
		}
		hits, misses := st2.Cache.Hits-st1.Cache.Hits, st2.Cache.Misses-st1.Cache.Misses
		r.layer["server.cache_hit_rate"] = ratio(float64(hits), float64(hits+misses))
		if hr := r.layer["server.cache_hit_rate"]; hr < 0.99 {
			r.fail("shape: warm cache hit rate %.4f, want >= 0.99", hr)
		}
		// Bucketed (1-2-5) upper bounds, so this is an upper bound too.
		r.layer["server.queue_wait_p50_ms"] = float64(st1.LatencyUS.P50-st1.ServiceUS.P50) / 1e3
		mem := s.fetchAll(r, rec, mix)
		if first == nil {
			first = mem
			verifyDirect(r, mix, mem)
		} else {
			sameBytes(r, "this pass vs the first", first, mem)
		}
		var cacheBytes int64
		for _, b := range mem {
			cacheBytes += int64(len(b)) / 8
		}
		retries := s.cli.Retries()
		if err := s.stop(); err != nil {
			return err
		}
		end1 := s.srv.Stats() // the shutdown flushed the write-behind queue
		if end1.Jobs.Persisted != int64(len(once)) {
			r.fail("the cold server persisted %d results, want %d", end1.Jobs.Persisted, len(once))
		}

		if s, err = startService(dir, cacheBytes); err != nil {
			return err
		}
		st3 := s.srv.Stats()
		spill := s.drive(r, rec, mix, cyclic, true, len(once)+warmN)
		st4 := s.srv.Stats()
		if n := st4.Jobs.EngineRuns - st3.Jobs.EngineRuns; n != 0 {
			r.fail("shape: the spill phase made %d engine runs, want 0", n)
		}
		if dh := st4.Jobs.DiskHits - st3.Jobs.DiskHits; !r.tiny && float64(dh) < 0.85*float64(spillN) {
			r.fail("shape: %d disk hits for %d spill requests, want >= 85%%", dh, spillN)
		}
		sameBytes(r, "store vs memory cache", mem, s.fetchAll(r, rec, mix))
		retries += s.cli.Retries()
		if err := s.stop(); err != nil {
			return err
		}

		for _, st := range []server.Stats{end1, s.srv.Stats()} { // both servers of the pass
			count("server.engine_runs", st.Jobs.EngineRuns)
			count("server.deduped", st.Jobs.Deduped)
			count("server.disk_hits", st.Jobs.DiskHits)
			count("server.persisted", st.Jobs.Persisted)
			count("server.rejected", st.Jobs.RejectedQueueFull+st.Jobs.RejectedInvalid+st.Jobs.DeadlineShed+st.Jobs.RejectedDegraded)
		}
		count("server.client_retries", retries)
		p := pass{wall: cold.wall + warm.wall + spill.wall, traced: rec != nil,
			lat: slices.Concat(cold.lat, warm.lat, spill.lat)}
		if !p.traced {
			for i, ph := range []pass{cold, warm, spill} {
				phase[i] = append(phase[i], secs(ph.wall)/float64(len(ph.lat)))
			}
			p99 = append(p99, p.percentile(0.99))
		}
		r.addPass(p)
	}
	n := float64(len(r.passes))
	for _, k := range []string{"server.engine_runs", "server.deduped", "server.disk_hits", "server.persisted", "server.rejected", "server.client_retries"} {
		r.layer[k] /= n // per pass
	}
	r.layer["server.cold_ms_per_job"] = best(phase[0]) * 1e3
	r.layer["server.warm_us_per_req"] = best(phase[1]) * 1e6
	r.layer["server.spill_us_per_req"] = best(phase[2]) * 1e6
	// The tail a client sees is a per-layer metric because it does not hold
	// a bound: 61 requests of a pass lie beyond its p99, and one collection
	// or one descheduled client moves it by a quarter.
	r.layer["server.p99_ms"] = best(p99)
	return nil
}

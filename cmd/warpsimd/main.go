// Command warpsimd is the simulation-as-a-service daemon: a long-running
// HTTP/JSON server that accepts simulation jobs (registered kernels or
// inline ISA programs plus a configuration), validates them with the
// static analyzer at admission, runs them on a bounded worker pool, and
// serves results from a content-addressed cache keyed by (program FNV,
// config hash, sim version) — so repeated submissions return instantly
// and byte-identically. Jobs run in admission order; a full queue (-queue)
// is the only load shed, answered with 429 and a Retry-After hint.
//
//	warpsimd -addr :8723 -workers 8 -store /var/tmp/warpsimd.d
//
// Endpoints: POST /v1/jobs, GET /v1/jobs/{id}, GET /v1/results/{key},
// GET /v1/stats, GET /healthz (see README "Serving simulations" for the
// curl quickstart). A job's id is its result key. SIGTERM/SIGINT drain
// gracefully: admission stops and queued and running jobs finish. With
// -store, every result the daemon has written survives a restart; a job
// still unfinished at a hard kill is not resumed, and resubmitting it
// recomputes the same bytes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"warpsched/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8723", "listen address")
		workers   = flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "admission queue depth; beyond it submissions get HTTP 429 + Retry-After (the only load shed)")
		cacheMB   = flag.Int64("cache-mb", 256, "result cache memory bound in MiB")
		maxCycles = flag.Int64("max-cycles", 10_000_000, "per-job watchdog cycle ceiling")
		check     = flag.Bool("check", false, "arm runtime invariant checking and early hang aborts on every job")
		storeDir  = flag.String("store", "", "persistent result store directory (empty = memory-only cache)")
		storeMB   = flag.Int64("store-mb", 4096, "persistent store size bound in MiB")
		drainSecs = flag.Int("drain-timeout", 600, "seconds to wait for in-flight jobs on shutdown")
		quiet     = flag.Bool("quiet", false, "suppress per-job log lines")
	)
	flag.Parse()

	opt := server.Options{
		Workers: *workers, QueueDepth: *queue, CacheBytes: *cacheMB << 20,
		MaxJobCycles: *maxCycles, Check: *check,
		StoreDir: *storeDir, StoreBytes: *storeMB << 20,
	}
	if !*quiet {
		opt.Log = log.Printf
	}
	s, err := server.New(opt)
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	log.Printf("warpsimd: serving on %s (workers=%d queue=%d cache=%dMiB store=%q)",
		ln.Addr(), s.Stats().Workers, opt.QueueDepth, *cacheMB, *storeDir)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case got := <-sig:
		log.Printf("warpsimd: %v — draining", got)
	case err := <-errCh:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSecs)*time.Second)
	defer cancel()
	// Stop the listener first so no new requests race the drain, then
	// let queued and running jobs finish.
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("warpsimd: http shutdown: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	log.Printf("warpsimd: drained cleanly")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "warpsimd:", err)
	os.Exit(1)
}

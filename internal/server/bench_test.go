package server

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

func BenchmarkResolveQuickKernel(b *testing.B) {
	o := Options{}
	req := &JobRequest{Kernel: "HT", Config: JobConfig{SMs: 2, Quick: true}}
	for i := 0; i < b.N; i++ {
		if _, rerr := o.Resolve(req); rerr != nil {
			b.Fatal(rerr)
		}
	}
}

func BenchmarkResolveInline(b *testing.B) {
	o := Options{}
	for i := 0; i < b.N; i++ {
		if _, rerr := o.Resolve(inlineReq(1000)); rerr != nil {
			b.Fatal(rerr)
		}
	}
}

// benchSubmitHits times direct Submit calls (no HTTP) that are answered
// from a cache tier: outside the timer the server is primed with every
// request, and opt decides which tier answers afterwards. A hit leaves
// nothing behind in the server, so one server serves any b.N.
func benchSubmitHits(b *testing.B, opt Options, reqs []*JobRequest) {
	opt.Workers = 1
	s, err := New(opt)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { // also on Fatal, or the store outlives its TempDir
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	for _, req := range reqs {
		j, rerr := s.Submit(req)
		if rerr != nil {
			b.Fatal(rerr)
		}
		<-j.done
	}
	for s.disk != nil && s.persisted.Load() < s.engRuns.Load() {
		time.Sleep(time.Millisecond) // the store is written behind the reply
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, rerr := s.Submit(reqs[i%len(reqs)])
		if rerr != nil || !j.cached {
			b.Fatalf("submission %d was not a cache hit: %v", i, rerr)
		}
	}
	b.StopTimer()
}

// registeredReqs is six jobs on registered quick kernels at 2 SMs, the
// bulk of the benchmark's service mix.
func registeredReqs() []*JobRequest {
	var reqs []*JobRequest
	for _, sched := range []string{"LRR", "GTO", "CAWA"} {
		for _, k := range []string{"VECADD", "HT"} {
			reqs = append(reqs, &JobRequest{Kernel: k, Wait: true,
				Config: JobConfig{SMs: 2, Quick: true, Sched: sched, BOWS: "off"}})
		}
	}
	return reqs
}

// BenchmarkSubmitHitRegistered: memory-tier hits on registered quick
// kernels.
func BenchmarkSubmitHitRegistered(b *testing.B) {
	benchSubmitHits(b, Options{}, registeredReqs())
}

// BenchmarkSubmitHitInline: memory-tier hits on inline programs, which a
// full admission parses and runs through both analyzers.
func BenchmarkSubmitHitInline(b *testing.B) {
	var reqs []*JobRequest
	for i := uint32(0); i < 6; i++ {
		reqs = append(reqs, inlineReq(200+i), &JobRequest{Name: "vec", Source: vecLoopSrc,
			GridCTAs: 2, CTAThreads: 64, MemWords: 256, Params: []uint32{0, 200 + i}, Config: JobConfig{SMs: 1}})
	}
	benchSubmitHits(b, Options{}, reqs)
}

// BenchmarkSubmitDiskHit: a one-byte memory cache stores nothing, so
// every submission reads, verifies and decodes a store entry: a one-SM
// inline program's, or a 2-SM registered quick kernel's, whose manifest
// carries twice the per-SM counters.
func BenchmarkSubmitDiskHit(b *testing.B) {
	var inline []*JobRequest
	for i := uint32(0); i < 12; i++ {
		inline = append(inline, inlineReq(200+i))
	}
	for _, leg := range []struct {
		name string
		reqs []*JobRequest
	}{{"inline", inline}, {"registered", registeredReqs()}} {
		b.Run(leg.name, func(b *testing.B) {
			benchSubmitHits(b, Options{CacheBytes: 1, StoreDir: filepath.Join(b.TempDir(), "store")}, leg.reqs)
		})
	}
}

// BenchmarkCacheKey: the content address of a resolved spec, a
// registered quick kernel's and an inline program's: the program's
// canonical assembly and the variant's canonical bytes, each hashed.
func BenchmarkCacheKey(b *testing.B) {
	for _, leg := range []struct {
		name string
		req  *JobRequest
	}{
		{"registered", &JobRequest{Kernel: "HT", Config: JobConfig{SMs: 2, Quick: true}}},
		{"inline", inlineReq(1000)},
	} {
		spec, rerr := Options{}.Resolve(leg.req)
		if rerr != nil {
			b.Fatal(rerr)
		}
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CacheKey(spec)
			}
		})
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// vecLoopSrc is the second inline program of the benchmark's service mix
// (the first is testSrc): a load, a counted loop and a store per thread.
const vecLoopSrc = `
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

// customKernelSrc reads the spin-lock program of examples/customkernel
// out of its source file, so the seed follows the example.
func customKernelSrc(f *testing.F) string {
	data, err := os.ReadFile("../../examples/customkernel/main.go")
	if err != nil {
		f.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), "const stackPushSrc = `")
	src, _, ok2 := strings.Cut(rest, "`")
	if !ok || !ok2 {
		f.Fatal("examples/customkernel/main.go no longer declares stackPushSrc as a raw string")
	}
	return src
}

// FuzzSubmit posts arbitrary bytes to POST /v1/jobs on a server with a
// tiny cycle and memory ceiling. Whatever they are, the reply is one of
// the statuses the API documents — never a 500, never a panic — and the
// same body posted again, now that the admission table and the result
// cache are warm, gets the same answer: the same rejection byte for byte,
// or the same key, cycles and error, now served from the cache.
func FuzzSubmit(f *testing.F) {
	seed := func(req *JobRequest) {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	// The service mix's shapes.
	for _, cfg := range []JobConfig{
		{SMs: 2, Quick: true, Sched: "LRR", BOWS: "off"},
		{SMs: 2, Quick: true, Sched: "GTO", BOWS: "ddos"},
		{SMs: 2, Quick: true, Sched: "CAWA", BOWS: "static"},
	} {
		seed(&JobRequest{Kernel: "HT", Wait: true, Config: cfg})
	}
	seed(&JobRequest{Kernel: "VECADD", Config: JobConfig{SMs: 2, Quick: true}})
	seed(&JobRequest{Name: "alu0", Source: testSrc, Wait: true, GridCTAs: 2, CTAThreads: 64,
		MemWords: 64, Params: []uint32{230}, Config: JobConfig{SMs: 1}})
	seed(&JobRequest{Name: "vec1", Source: vecLoopSrc, Wait: true, GridCTAs: 2, CTAThreads: 64,
		MemWords: 256, Params: []uint32{0, 310}, Config: JobConfig{SMs: 1}})
	seed(&JobRequest{Name: "stackpush", Source: customKernelSrc(f), GridCTAs: 16, CTAThreads: 128,
		MemWords: 64 + 2048 + 64, Params: []uint32{0, 32, 64}, Config: JobConfig{SMs: 2, BOWS: "ddos"}})
	// TestBadRequests' rejections, and what sits next to them.
	f.Add([]byte("{not json"))
	f.Add([]byte(`{"kernle": "HT"}`))
	f.Add([]byte(`{"kernel":"HT","config":{"quick":true}} trailing`))
	f.Add([]byte(`{"kernel":"HT","deadline_ms":-1}`))
	f.Add([]byte(`{"kernel":"HT","deadline_ms":1,"priority":-3,"config":{"quick":true,"sms":1}}`))
	f.Add([]byte(`{"source":"exit\n","grid_ctas":2147483648,"cta_threads":9223372036854775807,"mem_words":1}`))
	delay := int64(64)
	for _, req := range []*JobRequest{
		{},
		{Kernel: "HT", Source: testSrc},
		{Kernel: "NOPE"},
		{Kernel: "HT", Config: JobConfig{Quick: true, Sched: "WASP"}},
		{Kernel: "HT", Config: JobConfig{Quick: true, GPU: "volta"}},
		{Kernel: "HT", Config: JobConfig{Quick: true, SMs: -1}},
		{Kernel: "HT", Config: JobConfig{Quick: true, MaxCycles: 1 << 60}},
		{Kernel: "HT", Config: JobConfig{Quick: true, SMs: 2, BOWS: "ddos", Delay: &delay, Hash: "MODULO"}},
		{Source: testSrc},
		{Source: testSrc, GridCTAs: 1, CTAThreads: 32, MemWords: 1 << 20},
		{Source: "frob %r1", GridCTAs: 1, CTAThreads: 32, MemWords: 64},
		{Source: "add %r1, %r2, 1\nexit\n", GridCTAs: 1, CTAThreads: 32, MemWords: 64},
		{Source: strings.Repeat("mov %r1, 1\n", maxInlineInstrs) + "exit\n", GridCTAs: 1, CTAThreads: 32, MemWords: 64},
		{Source: racySrc, GridCTAs: 1, CTAThreads: 64, MemWords: 64},
		{Source: racySrc, GridCTAs: 1, CTAThreads: 64, MemWords: 64, AllowUnsafe: true, Wait: true},
	} {
		seed(req)
	}

	s, err := New(Options{Workers: 1, MaxJobCycles: 2000, MaxMemWords: 4096})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			f.Errorf("Shutdown: %v", err)
		}
	})
	h := s.Handler()
	// post submits the body and, if a job was admitted, waits for it, so
	// that the queue is empty again and the second post finds it done;
	// the status it returns is the finished job's GET /v1/jobs/{id}.
	post := func(t *testing.T, body []byte) (int, []byte, JobStatus) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
		var st JobStatus
		switch rec.Code {
		case 200, 202:
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("status %d with an undecodable body %q: %v", rec.Code, rec.Body.Bytes(), err)
			}
			id := st.ID
			if j := inflight(s, id); j != nil {
				waitDone(t, j)
			}
			var ok bool
			if st, ok = s.Job(id); !ok {
				t.Fatalf("reply names job %q, which the server does not know", id)
			}
		case 400, 422, 429:
		default:
			t.Fatalf("status %d (%s) for body %q", rec.Code, rec.Body.Bytes(), body)
		}
		return rec.Code, rec.Body.Bytes(), st
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		code1, reply1, st1 := post(t, body)
		code2, reply2, st2 := post(t, body)
		if code1 >= 400 || code2 >= 400 {
			if code1 != code2 || !bytes.Equal(reply1, reply2) {
				t.Fatalf("body %q: first %d %s, then %d %s", body, code1, reply1, code2, reply2)
			}
			return
		}
		if st1.Key != st2.Key || st1.Key == "" || st1.Cycles != st2.Cycles || st1.Err != st2.Err || !st2.Cached {
			t.Fatalf("body %q: first %+v, then %+v", body, st1, st2)
		}
	})
}

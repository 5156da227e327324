package chaos

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"warpsched/internal/server"
	"warpsched/internal/store"
)

// daemonBin is the warpsimd binary under test, built once in TestMain
// so every crash/restart cycle exercises the real process boundary
// (flag parsing, signal handling, startup recovery) and not just the
// library.
var daemonBin string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "chaos-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
	daemonBin = filepath.Join(tmp, "warpsimd")
	out, err := exec.Command("go", "build", "-o", daemonBin, "warpsched/cmd/warpsimd").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: build warpsimd: %v\n%s", err, out)
		os.RemoveAll(tmp)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// chaosSrc mirrors the server package's test program: a counted ALU
// loop whose run length is param 0, analysis-clean so admission needs
// no allow_unsafe.
const chaosSrc = `
  ld.param %r2, 0
  mov %r1, 0
loop:
  add %r1, %r1, 1
  setp.lt %p1, %r1, %r2
  @%p1 bra loop
  exit
`

func chaosReq(iters uint32, wait bool) *server.JobRequest {
	return &server.JobRequest{Source: chaosSrc, Name: "alu-loop",
		GridCTAs: 1, CTAThreads: 32, MemWords: 64, Params: []uint32{iters},
		Config: server.JobConfig{SMs: 1}, Wait: wait}
}

// daemon is one warpsimd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	startup string     // the "serving on …" log line, from the address on
	done    chan error // closed after the process exits
}

// startDaemon launches warpsimd on an ephemeral port with the given
// extra flags and waits for its "serving on <addr>" startup line.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(daemonBin, append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start warpsimd: %v", err)
	}
	startCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on "); i >= 0 {
				select {
				case startCh <- line[i+len("serving on "):]:
				default:
				}
			}
		}
	}()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait(); close(done) }()

	select {
	case startup := <-startCh:
		addr, _, _ := strings.Cut(startup, " ")
		d := &daemon{cmd: cmd, addr: addr, startup: startup, done: done}
		t.Cleanup(d.sigkill) // safety net; a no-op once the process exited
		return d
	case err := <-done:
		t.Fatalf("warpsimd exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("warpsimd never reported its listen address")
	}
	return nil
}

// sigkill is the crash: no drain, no flush of the write-behind store.
func (d *daemon) sigkill() {
	d.cmd.Process.Kill()
	<-d.done
}

// terminate is the clean exit: SIGTERM, then wait for the drain.
func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		t.Fatal("warpsimd did not drain after SIGTERM")
	}
}

func (d *daemon) client() *server.Client {
	return server.NewClient("http://"+d.addr, server.ClientOptions{
		MaxAttempts: 8,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  200 * time.Millisecond,
	})
}

// submitDone submits synchronously and requires a clean completion.
func submitDone(t *testing.T, cli *server.Client, req *server.JobRequest) server.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := cli.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.State != "done" || st.Err != "" {
		t.Fatalf("job did not complete cleanly: %+v", st)
	}
	return st
}

// fetchManifest requires the result to be served now.
func fetchManifest(t *testing.T, cli *server.Client, key string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	data, err := cli.Result(ctx, key)
	if err != nil {
		t.Fatalf("result %s: %v", key, err)
	}
	return data
}

const (
	fastIters = 1000
	slowIters = 400_000 // long enough to be in flight when the crash lands
)

// TestStartupLineReportsThePool: started without -workers, the daemon logs
// the pool the server built (GET /v1/stats' "workers"), not the flag's 0.
func TestStartupLineReportsThePool(t *testing.T) {
	d := startDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := d.client().Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	d.terminate(t)
	if want := fmt.Sprintf("(workers=%d ", st.Workers); st.Workers < 1 || !strings.Contains(d.startup, want) {
		t.Errorf("startup line %q does not carry %q", d.startup, want)
	}
}

// TestSIGKILLMidJobRecovers is the headline durability claim: SIGKILL
// the daemon with one result acked and written and another job in
// flight, restart on the same store, and require that (a) the acked
// result is served byte-identically from disk with no engine run, and
// (b) resubmitting the in-flight request, which the crash lost, yields a
// manifest byte-identical to a clean daemon's run of the same request.
func TestSIGKILLMidJobRecovers(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")

	d := startDaemon(t, "-workers", "1", "-store", storeDir)
	cli := d.client()

	acked := submitDone(t, cli, chaosReq(fastIters, true))
	ackedManifest := fetchManifest(t, cli, acked.Key)
	// The store is written behind the reply; a result acked but not yet
	// written is lost to a crash like an in-flight job (and recomputed on
	// resubmission), so (a) waits for the write.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for {
		st, err := cli.Stats(ctx)
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if st.Jobs.Persisted == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A slower job submitted asynchronously; with one worker it is
	// running (or still queued) when the SIGKILL lands. Wait until the
	// daemon reports it started so the crash is genuinely mid-job.
	inflight, err := cli.Submit(ctx, chaosReq(slowIters, false))
	if err != nil {
		t.Fatalf("submit in-flight job: %v", err)
	}
	for start := time.Now(); time.Since(start) < 10*time.Second; {
		js, err := cli.Job(ctx, inflight.ID)
		if err != nil {
			t.Fatalf("job poll: %v", err)
		}
		if js.State != "queued" {
			break // running, or already done — the asserts below hold either way
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.sigkill()

	d2 := startDaemon(t, "-workers", "1", "-store", storeDir)
	cli2 := d2.client()

	// (a) The acked result survived the crash, byte for byte, and a
	// repeat submission is answered without another engine run.
	if got := fetchManifest(t, cli2, acked.Key); !bytes.Equal(got, ackedManifest) {
		t.Error("acked manifest changed across SIGKILL + restart")
	}
	again := submitDone(t, cli2, chaosReq(fastIters, true))
	if !again.Cached {
		t.Errorf("persisted key re-ran the engine after restart: %+v", again)
	}

	// (b) The in-flight job is resubmitted, and its manifest matches a
	// clean run on a fresh daemon (same binary, so the manifests must
	// agree in every byte).
	resubmitted := submitDone(t, cli2, chaosReq(slowIters, true))
	if resubmitted.Key != inflight.Key {
		t.Fatalf("resubmitted key %s != in-flight key %s", resubmitted.Key, inflight.Key)
	}
	recomputed := fetchManifest(t, cli2, resubmitted.Key)
	d2.terminate(t)

	ref := startDaemon(t, "-workers", "1")
	refSt := submitDone(t, ref.client(), chaosReq(slowIters, true))
	if refSt.Key != inflight.Key {
		t.Fatalf("reference key %s != in-flight key %s", refSt.Key, inflight.Key)
	}
	refManifest := fetchManifest(t, ref.client(), refSt.Key)
	ref.terminate(t)
	if !bytes.Equal(recomputed, refManifest) {
		t.Error("resubmitted manifest differs from a clean engine run")
	}
}

// TestStoreCorruptionQuarantine flips a byte in a persisted entry and
// restarts: the startup scan must quarantine the damaged file (move,
// never delete) while the daemon keeps serving, and a re-submission
// must reproduce the original bytes.
func TestStoreCorruptionQuarantine(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")

	d := startDaemon(t, "-workers", "1", "-store", storeDir)
	st := submitDone(t, d.client(), chaosReq(fastIters, true))
	orig := fetchManifest(t, d.client(), st.Key)
	d.terminate(t) // the drain flushes the persister

	entry := filepath.Join(storeDir, st.Key[:2], st.Key)
	data, err := os.ReadFile(entry)
	if err != nil {
		t.Fatalf("read persisted entry: %v", err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(entry, data, 0o644); err != nil {
		t.Fatalf("corrupt entry: %v", err)
	}

	d2 := startDaemon(t, "-workers", "1", "-store", storeDir)
	cli2 := d2.client()

	// The corrupt entry must not be served: the key is a miss now.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = cli2.Result(ctx, st.Key)
	var ae *server.APIError
	if !errors.As(err, &ae) || ae.Status != 404 {
		t.Fatalf("corrupt entry lookup: err = %v, want a 404 miss", err)
	}

	// Quarantined, not deleted: the damaged bytes moved under
	// quarantine/ next to a report line naming the key.
	if _, err := os.Stat(entry); !os.IsNotExist(err) {
		t.Errorf("corrupt entry still in its shard (err=%v)", err)
	}
	qdir := filepath.Join(storeDir, "quarantine")
	ents, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatalf("quarantine dir: %v", err)
	}
	var preserved, reported bool
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(qdir, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		if bytes.Equal(b, data) {
			preserved = true
		}
		if e.Name() == "report.jsonl" && strings.Contains(string(b), st.Key) {
			reported = true
		}
	}
	if !preserved {
		t.Error("damaged bytes not preserved in quarantine/")
	}
	if !reported {
		t.Error("quarantine report.jsonl does not name the damaged key")
	}

	// The daemon keeps serving: a re-submission re-runs the engine and
	// reproduces the original bytes.
	st2 := submitDone(t, cli2, chaosReq(fastIters, true))
	if !bytes.Equal(fetchManifest(t, cli2, st2.Key), orig) {
		t.Error("re-run after quarantine is not byte-identical to the original")
	}
	d2.terminate(t)
}

// TestENOSPCPersistence runs the server in-process over store.FaultFS:
// with every write and fsync failing (torn), jobs must still complete
// and be served from memory while persist failures are counted, and
// once the "disk" heals persistence resumes.
func TestENOSPCPersistence(t *testing.T) {
	ffs := store.NewFaultFS(store.OS{}, 1, store.FaultConfig{
		WriteEvery: 1, SyncEvery: 1, TornWrites: true})
	ffs.SetEnabled(false) // healthy while the store opens

	s, err := server.New(server.Options{Workers: 1, StoreDir: t.TempDir(),
		StoreFS: ffs})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cli := server.NewClient(ts.URL, server.ClientOptions{})

	waitStats := func(what string, ok func(server.Stats) bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			st, err := cli.Stats(context.Background())
			if err != nil {
				t.Fatalf("stats: %v", err)
			}
			if ok(st) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, st.Jobs)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	submitDone(t, cli, chaosReq(1000, true))
	waitStats("first persist", func(st server.Stats) bool { return st.Jobs.Persisted >= 1 })

	// Disk full: results are still computed, acked and served from
	// memory; the write-behind persister records the failures.
	ffs.SetEnabled(true)
	st2 := submitDone(t, cli, chaosReq(2000, true))
	waitStats("persist failure", func(st server.Stats) bool { return st.Jobs.PersistFailed >= 1 })
	if ffs.Injected() == 0 {
		t.Error("FaultFS injected no faults")
	}
	fetchManifest(t, cli, st2.Key)

	// Space freed: persistence resumes without a restart.
	ffs.SetEnabled(false)
	submitDone(t, cli, chaosReq(3000, true))
	waitStats("persist after heal", func(st server.Stats) bool { return st.Jobs.Persisted >= 2 })

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

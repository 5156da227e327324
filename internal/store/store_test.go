package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func testKey(i int) string {
	return fmt.Sprintf("%016x-abcdef0123456789-v1", uint64(i)*0x9e3779b97f4a7c15+1)
}

func mustOpen(t *testing.T, dir string, opt Options) (*Store, RecoveryReport) {
	t.Helper()
	s, rep, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rep
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	payload := []byte(`{"schema":2,"runs":[{"cycles":12345}]}` + "\n")
	key := testKey(1)
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get: ok=%v got %q want %q", ok, got, payload)
	}
	// Bytes survive a reopen (the whole point of the store).
	s2, rep := mustOpen(t, dir, Options{})
	if rep.Recovered != 1 || len(rep.Quarantined) != 0 {
		t.Fatalf("reopen recovery = %+v, want 1 recovered, 0 quarantined", rep)
	}
	got, ok = s2.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after reopen: ok=%v got %q", ok, got)
	}
	if _, ok := s2.Get("0000000000000000-missing-v1"); ok {
		t.Fatal("Get of absent key returned ok")
	}
}

func TestRejectsUnsafeKeys(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	for _, key := range []string{"", "ab", "../../etc/passwd", "a/b-c", ".hidden-key-x", "key with space"} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an unsafe key", key)
		}
		// Get takes any string (a daemon passes URL path segments): an
		// unsafe key is a plain miss, never a panic or a read.
		if _, ok := s.Get(key); ok {
			t.Errorf("Get(%q) hit", key)
		}
	}
}

// TestConcurrentWritersSameKey hammers one key from many goroutines
// while readers spin; every read must return the canonical payload.
func TestConcurrentWritersSameKey(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	key := testKey(2)
	payload := bytes.Repeat([]byte("deterministic result "), 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := s.Put(key, payload); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if got, ok := s.Get(key); ok && !bytes.Equal(got, payload) {
					t.Errorf("Get returned wrong bytes (%d)", len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("final Get: ok=%v", ok)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestEvictionRacingRead runs a GC-heavy writer against readers of a
// hot key: reads may miss (eviction) but must never return wrong or
// partial bytes, and the store must never report corruption.
func TestEvictionRacingRead(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 2048)
	// Bound fits only a handful of entries, so every Put evicts.
	s, _ := mustOpen(t, t.TempDir(), Options{MaxBytes: 8 * 1024})
	hot := testKey(0)
	done := make(chan struct{})
	var writerWG sync.WaitGroup
	var wg sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 1; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := s.Put(testKey(i), payload); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Put(hot, payload)
				if got, ok := s.Get(hot); ok && !bytes.Equal(got, payload) {
					t.Errorf("hot read returned wrong bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	writerWG.Wait()
	st := s.Stats()
	if st.CorruptReads != 0 {
		t.Fatalf("eviction races were misreported as corruption: %+v", st)
	}
	if st.Bytes > 8*1024 {
		t.Fatalf("GC failed to hold the bound: %d bytes", st.Bytes)
	}
}

func TestGCEvictsLeastRecentlyAccessed(t *testing.T) {
	payload := bytes.Repeat([]byte("y"), 1000)
	s, _ := mustOpen(t, t.TempDir(), Options{MaxBytes: 4 * 1100})
	for i := 0; i < 4; i++ {
		if err := s.Put(testKey(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 0 so key 1 is the LRU victim.
	if _, ok := s.Get(testKey(0)); !ok {
		t.Fatal("key 0 missing before GC")
	}
	if err := s.Put(testKey(9), payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey(1)); ok {
		t.Fatal("LRU victim (key 1) survived GC")
	}
	if _, ok := s.Get(testKey(0)); !ok {
		t.Fatal("recently accessed key 0 was evicted")
	}
	if st := s.Stats(); st.GCEvictions == 0 {
		t.Fatalf("no GC evictions recorded: %+v", st)
	}
}

// TestCorruptEntriesQuarantinedAtOpen damages entries in all the ways
// the chaos harness does — truncation, bit-flips, zero-byte and
// header-only files — and asserts recovery quarantines (never deletes)
// them while healthy entries keep serving.
func TestCorruptEntriesQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	payload := []byte(strings.Repeat("result bytes ", 100))
	keys := make([]string, 6)
	for i := range keys {
		keys[i] = testKey(10 + i)
		if err := s.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
	}
	path := func(key string) string { return filepath.Join(dir, key[:2], key) }

	// keys[0]: truncated mid-payload.
	full, err := os.ReadFile(path(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path(keys[0]), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// keys[1]: single bit flip in the payload.
	data, _ := os.ReadFile(path(keys[1]))
	data[len(data)-7] ^= 0x40
	os.WriteFile(path(keys[1]), data, 0o644)
	// keys[2]: zero-byte file.
	os.WriteFile(path(keys[2]), nil, 0o644)
	// keys[3]: header-only file (payload gone entirely).
	data, _ = os.ReadFile(path(keys[3]))
	nl := bytes.IndexByte(data, '\n')
	os.WriteFile(path(keys[3]), data[:nl+1], 0o644)
	// An orphan temp file from a crashed atomic write.
	os.WriteFile(filepath.Join(dir, keys[4][:2], ".tmp-99-"+keys[4]), []byte("partial"), 0o644)

	s2, rep := mustOpen(t, dir, Options{})
	if rep.Recovered != 2 { // keys[4] and keys[5] are intact
		t.Fatalf("recovered = %d, want 2 (report %+v)", rep.Recovered, rep)
	}
	if len(rep.Quarantined) != 5 {
		t.Fatalf("quarantined = %d, want 5 (report %+v)", len(rep.Quarantined), rep)
	}
	for _, k := range keys[:4] {
		if _, ok := s2.Get(k); ok {
			t.Fatalf("corrupt key %s still readable", k)
		}
	}
	if got, ok := s2.Get(keys[5]); !ok || !bytes.Equal(got, payload) {
		t.Fatal("healthy entry lost during recovery")
	}
	// Quarantine holds the damaged files (moved, not deleted) plus the
	// structured report.
	qents, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(qents) != 6 { // 5 damaged files + report.jsonl
		var names []string
		for _, e := range qents {
			names = append(names, e.Name())
		}
		t.Fatalf("quarantine holds %v, want 5 files + report", names)
	}
	repData, err := os.ReadFile(filepath.Join(dir, quarantineDir, reportFile))
	if err != nil || bytes.Count(repData, []byte("\n")) != 5 {
		t.Fatalf("report.jsonl: err=%v lines=%d want 5", err, bytes.Count(repData, []byte("\n")))
	}

	// Quarantine-then-resubmit: re-putting a quarantined key repopulates
	// it with the canonical bytes.
	if err := s2.Put(keys[1], payload); err != nil {
		t.Fatalf("repopulate: %v", err)
	}
	if got, ok := s2.Get(keys[1]); !ok || !bytes.Equal(got, payload) {
		t.Fatal("repopulated key does not round-trip")
	}
}

// TestCorruptionDetectedOnRead flips a bit under a live store and
// asserts the read misses, quarantines, and a re-put self-heals.
func TestCorruptionDetectedOnRead(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	key := testKey(30)
	payload := []byte(strings.Repeat("z", 500))
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, key[:2], key)
	data, _ := os.ReadFile(p)
	data[len(data)-1] ^= 1
	os.WriteFile(p, data, 0o644)

	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt entry served")
	}
	st := s.Stats()
	if st.CorruptReads != 1 || st.Quarantined == 0 {
		t.Fatalf("corruption not recorded: %+v", st)
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("self-heal Put: %v", err)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatal("self-healed key does not serve")
	}
}

// TestENOSPC drives Puts into an always-full disk, asserts clean
// failures with no partial entries, then "frees space" and asserts the
// store heals.
func TestENOSPC(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS{}, 42, FaultConfig{WriteEvery: 1})
	s, _ := mustOpen(t, dir, Options{FS: ffs})
	key := testKey(40)
	if err := s.Put(key, []byte("payload")); err == nil {
		t.Fatal("Put on a full disk succeeded")
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("failed Put left a readable entry")
	}
	ffs.SetEnabled(false) // space freed
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatalf("Put after space freed: %v", err)
	}
	if got, ok := s.Get(key); !ok || string(got) != "payload" {
		t.Fatal("healed store does not serve")
	}
	// No stray temp files remain in the shard directory.
	ents, _ := os.ReadDir(filepath.Join(dir, key[:2]))
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s leaked", e.Name())
		}
	}
}

// TestCrashRestartLoop simulates ten crash/restart cycles: each
// iteration writes entries through a torn-write fault schedule
// (acked = Put returned nil), "crashes" by dropping the Store without
// any shutdown path, reopens, and asserts every acked entry survives
// byte-identically and every torn write was quarantined or cleaned,
// never served.
func TestCrashRestartLoop(t *testing.T) {
	dir := t.TempDir()
	acked := make(map[string][]byte)
	payloadFor := func(i, j int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("run-%d-%d ", i, j)), 20+j)
	}
	for iter := 0; iter < 10; iter++ {
		ffs := NewFaultFS(OS{}, uint64(iter)+1, FaultConfig{WriteEvery: 3, TornWrites: true, RenameEvery: 7})
		s, rep := mustOpen(t, dir, Options{FS: ffs})
		// Everything previously acked must have survived the crash.
		if rep.Recovered < 0 {
			t.Fatal("unreachable")
		}
		for k, want := range acked {
			got, ok := s.Get(k)
			if !ok {
				t.Fatalf("iter %d: acked key %s lost", iter, k)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("iter %d: acked key %s bytes differ", iter, k)
			}
		}
		for j := 0; j < 8; j++ {
			key := testKey(1000 + iter*8 + j)
			payload := payloadFor(iter, j)
			if err := s.Put(key, payload); err == nil {
				acked[key] = payload
			}
		}
		// Crash: no Close, no flush — the Store is simply abandoned.
	}
	s, _ := mustOpen(t, dir, Options{})
	for k, want := range acked {
		got, ok := s.Get(k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("final check: acked key %s lost or damaged (ok=%v)", k, ok)
		}
	}
	if len(acked) == 0 {
		t.Fatal("fault schedule acked nothing; test proved nothing")
	}
}

// parkFS runs park once, on the goroutine of the first Rename whose new
// path match accepts: before that rename if before is set, else just
// after it completes.
type parkFS struct {
	FS
	match  func(newpath string) bool
	before bool
	parked atomic.Bool
	park   func()
}

func (p *parkFS) Rename(oldpath, newpath string) error {
	hit := p.match(newpath) && p.parked.CompareAndSwap(false, true)
	if hit && p.before {
		p.park()
	}
	err := p.FS.Rename(oldpath, newpath)
	if hit && !p.before && err == nil {
		p.park()
	}
	return err
}

// TestPutIndexesOnlyWhatIsOnDisk parks the first Put of a key between
// its rename and whatever follows, and there runs the interleaving that
// once indexed a deleted file: a second Put of the key indexes it, and
// another key's Put evicts it, deleting the file. The parked Put must
// then not index the key again — the store owns only what is on disk.
// Where the index lock is held across the rename, that interleaving
// cannot run and the park returns at once.
func TestPutIndexesOnlyWhatIsOnDisk(t *testing.T) {
	payload := bytes.Repeat([]byte("z"), 1000)
	key, other := testKey(1), testKey(2)
	pfs := &parkFS{FS: OS{}, match: func(newpath string) bool { return strings.HasSuffix(newpath, "/"+key) }}
	// Room for one entry: the other key's Put evicts key.
	s, _ := mustOpen(t, t.TempDir(), Options{MaxBytes: 1500, FS: pfs})
	interleaved := false
	pfs.park = func() {
		if !s.mu.TryLock() {
			return
		}
		s.mu.Unlock()
		interleaved = true
		if err := s.Put(key, payload); err != nil {
			t.Errorf("second Put: %v", err)
		}
		if err := s.Put(other, payload); err != nil {
			t.Errorf("other Put: %v", err)
		}
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after a nil Put: ok=%v (interleaved=%v)", ok, interleaved)
	}
	st := s.Stats()
	if st.CorruptReads != 0 {
		t.Fatalf("corrupt reads = %d, want 0", st.CorruptReads)
	}
	var onDisk int64
	for _, k := range []string{key, other} {
		if fi, err := os.Stat(filepath.Join(s.root, shardOf(k), k)); err == nil {
			onDisk += fi.Size()
		}
	}
	if st.Bytes != onDisk {
		t.Fatalf("index counts %d bytes, disk holds %d", st.Bytes, onDisk)
	}
}

// TestQuarantineMovesOnlyWhatItDrops parks a damaged entry's quarantine
// rename before it runs, and there runs the interleaving that once moved
// a fresh file away: a Put of the key finds it unindexed, renames its
// file into place and indexes it, and the quarantine rename then moves
// that file, so the Put returned nil with nothing on disk. Where the
// index lock is held from the drop through the rename, that
// interleaving cannot run and the park returns at once.
func TestQuarantineMovesOnlyWhatItDrops(t *testing.T) {
	payload := bytes.Repeat([]byte("q"), 1000)
	key := testKey(1)
	pfs := &parkFS{FS: OS{}, before: true,
		match: func(newpath string) bool { return strings.Contains(newpath, "/"+quarantineDir+"/") }}
	s, _ := mustOpen(t, t.TempDir(), Options{FS: pfs})
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := filepath.Join(s.root, shardOf(key), key)
	if err := os.WriteFile(path, []byte("damaged"), 0o644); err != nil {
		t.Fatal(err)
	}
	interleaved := false
	pfs.park = func() {
		if !s.mu.TryLock() {
			return
		}
		s.mu.Unlock()
		interleaved = true
		if err := s.Put(key, payload); err != nil {
			t.Errorf("Put in the gap: %v", err)
		}
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("damaged entry served")
	}
	if !pfs.parked.Load() {
		t.Fatal("the damaged entry was never quarantined")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put after the drop: %v", err)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after a nil Put: ok=%v (interleaved=%v)", ok, interleaved)
	}
	st := s.Stats()
	if st.CorruptReads != 1 {
		t.Fatalf("corrupt reads = %d, want 1", st.CorruptReads)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("entry file: %v", err)
	}
	if st.Bytes != fi.Size() {
		t.Fatalf("index counts %d bytes, disk holds %d", st.Bytes, fi.Size())
	}
}

// readParkFS runs park once, just after the first ReadFile of the
// entry file of key.
type readParkFS struct {
	FS
	key    string
	parked atomic.Bool
	park   func()
}

func (p *readParkFS) ReadFile(path string) ([]byte, error) {
	data, err := p.FS.ReadFile(path)
	if strings.HasSuffix(path, "/"+p.key) && p.parked.CompareAndSwap(false, true) {
		p.park()
	}
	return data, err
}

// TestDamagedReadSparesReplacement reads a damaged entry and, before the
// read is acted on, evicts the key and puts it again: the damaged file
// is gone, and the fresh entry must stay indexed and out of quarantine.
func TestDamagedReadSparesReplacement(t *testing.T) {
	payload := bytes.Repeat([]byte("r"), 1000)
	key, other := testKey(1), testKey(2)
	rfs := &readParkFS{FS: OS{}, key: key}
	// Room for one entry: each Put evicts the other key.
	s, _ := mustOpen(t, t.TempDir(), Options{MaxBytes: 1500, FS: rfs})
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := filepath.Join(s.root, shardOf(key), key)
	if err := os.WriteFile(path, []byte("damaged"), 0o644); err != nil {
		t.Fatal(err)
	}
	rfs.park = func() {
		for _, k := range []string{other, key} {
			if err := s.Put(k, payload); err != nil {
				t.Errorf("Put %s: %v", k, err)
			}
		}
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("damaged entry served")
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get of the replacement: ok=%v", ok)
	}
	if q := s.Stats().Quarantined; q != 0 {
		t.Fatalf("quarantined = %d, want 0", q)
	}
}

// TestDelete: a deleted key misses, its file is gone (a reopen recovers
// nothing), and deleting an absent key is a no-op.
func TestDelete(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	key := testKey(1)
	if err := s.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := s.Delete(key); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if _, ok := s.Get(key); ok || s.Len() != 0 || s.Stats().Bytes != 0 {
		t.Fatalf("after Delete: hit=%v, %d entries, %d bytes; want a miss and an empty store", ok, s.Len(), s.Stats().Bytes)
	}
	if _, rep := mustOpen(t, dir, Options{}); rep.Scanned != 0 {
		t.Fatalf("reopen scanned %d files, want 0", rep.Scanned)
	}
}

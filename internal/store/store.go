// Package store is a persistent content-addressed result store: a
// durable key→bytes map under the simulation service's cache keys
// (FNV(program)-VariantHash-v{sim.Version}). Determinism makes entries
// immutable — equal key means byte-equal value, forever — which is why
// Put on a key the store already holds only refreshes its recency. That
// holds in a directory several tools write because each keeps a key
// space of its own: warpsimd files a manifest under the bare key, the
// sweep journal (exp.Journal) a run record under the key plus ".rec".
// The store needs no invalidation protocol, only durability and
// self-healing:
//
//   - every write is atomic and fsynced (temp file → fsync → rename →
//     dir fsync, through writeTemp and Put), so a crash never leaves
//     a partial entry under a live name;
//   - every entry carries a checksummed header, verified on startup and
//     on every read;
//   - corrupt or truncated entries are quarantined — moved, never
//     deleted — into quarantine/ with a structured report, and the key
//     simply misses until a resubmission repopulates it;
//   - a size-capped GC evicts least-recently-accessed entries once the
//     byte bound is exceeded.
//
// The in-memory result cache (internal/server.Cache) fronts this store
// read-through/write-through; the store is the durable tier that
// survives process death.
package store

import (
	"container/list"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
)

// headerMagic starts every entry file; the version suffix changes if
// the on-disk format ever does.
const headerMagic = "warpstore1"

// quarantineDir is the subdirectory (of the store root) corrupt entries
// are moved into; reportFile inside it accumulates one JSON line per
// quarantined file.
const (
	quarantineDir = "quarantine"
	reportFile    = "report.jsonl"
)

// Options configures a Store. The zero value is usable: Open fills
// every unset field with the documented default.
type Options struct {
	// MaxBytes bounds the on-disk footprint (payload + header bytes of
	// live entries); least-recently-accessed entries are evicted once a
	// write exceeds it (default 4 GiB). Quarantined bytes do not count
	// against the bound — quarantine is an operator-owned holding area.
	MaxBytes int64
	// FS is the filesystem to run on (default OS). Tests inject
	// FaultFS here to simulate ENOSPC, torn writes and failed renames.
	FS FS
	// Log, when non-nil, receives one line per notable store event
	// (quarantines, GC evictions, recovery summary).
	Log func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxBytes <= 0 {
		o.MaxBytes = 4 << 30
	}
	if o.FS == nil {
		o.FS = OS{}
	}
	return o
}

// entry is one live key in the index.
type entry struct {
	key  string
	size int64 // on-disk bytes (header + payload)
}

// Store is a durable content-addressed key→bytes map. All methods are
// safe for concurrent use. Reads happen outside the index lock, so a
// read can race an eviction; content addressing makes every interleaving
// safe (whatever bytes a read returns passed the checksum and are the
// value for that key).
type Store struct {
	fs   FS
	root string
	opt  Options

	mu     sync.Mutex
	index  map[string]*list.Element
	ll     *list.List // front = most recently accessed
	bytes  int64
	tmpSeq int64

	hits, misses, puts, gcEvictions, quarantined, corrupt int64
}

// QuarantinedEntry describes one file moved into quarantine/: the key
// (or original filename for orphan temp files), the reason, and where
// it was moved to. The same record is appended as one JSON line to
// quarantine/report.jsonl.
type QuarantinedEntry struct {
	// Key is the content address the damaged file was stored under
	// (the original filename for orphan temp files).
	Key string `json:"key"`
	// Reason classifies the damage: "truncated", "bad-magic",
	// "bad-header", "checksum-mismatch", "key-mismatch", "short-payload",
	// "unreadable" or "orphan-temp".
	Reason string `json:"reason"`
	// SizeBytes is the damaged file's size as found.
	SizeBytes int64 `json:"size_bytes"`
	// QuarantinePath is where the file now lives, relative to the store
	// root.
	QuarantinePath string `json:"quarantine_path"`
}

// RecoveryReport summarizes one Open: how many entries were scanned,
// recovered into the index, and quarantined (with per-file detail).
type RecoveryReport struct {
	// Scanned counts files examined; Recovered of them entered the index.
	Scanned   int `json:"scanned"`
	Recovered int `json:"recovered"`
	// Quarantined lists every file moved aside, corrupt entries and
	// orphan temp files alike.
	Quarantined []QuarantinedEntry `json:"quarantined,omitempty"`
	// EvictedAtOpen counts entries GC'd immediately because the
	// recovered set already exceeded the byte bound.
	EvictedAtOpen int `json:"evicted_at_open,omitempty"`
}

// Open opens (creating if needed) the store rooted at dir, scans and
// verifies every entry, quarantines damaged ones, and returns the store
// plus a recovery report. Initial access order is the files' modification
// order (the best persisted approximation of last access); subsequent
// Gets and Puts refine it.
func Open(dir string, opt Options) (*Store, RecoveryReport, error) {
	opt = opt.withDefaults()
	s := &Store{fs: opt.FS, root: dir, opt: opt,
		index: make(map[string]*list.Element), ll: list.New()}
	var rep RecoveryReport
	if err := s.fs.MkdirAll(dir); err != nil {
		return nil, rep, fmt.Errorf("store: mkdir %s: %w", dir, err)
	}
	if err := s.fs.MkdirAll(dir + "/" + quarantineDir); err != nil {
		return nil, rep, fmt.Errorf("store: mkdir quarantine: %w", err)
	}
	if err := s.scan(&rep); err != nil {
		return nil, rep, err
	}
	s.mu.Lock()
	rep.EvictedAtOpen = s.gcLocked("")
	s.quarantined = int64(len(rep.Quarantined))
	s.mu.Unlock()
	if len(rep.Quarantined) > 0 {
		s.logf("store: recovery quarantined %d of %d files (see %s/%s/%s)",
			len(rep.Quarantined), rep.Scanned, dir, quarantineDir, reportFile)
	}
	return s, rep, nil
}

func (s *Store) logf(format string, args ...any) {
	if s.opt.Log != nil {
		s.opt.Log(format, args...)
	}
}

// scannedFile is one candidate entry found on disk, ordered by mtime so
// the recovered index approximates last-access order.
type scannedFile struct {
	shard, name string
	size        int64
	mtimeNS     int64
}

// scan walks the shard directories, verifies every file, quarantines
// damaged ones and orphan temp files, and seeds the index in
// modification-time order.
func (s *Store) scan(rep *RecoveryReport) error {
	shards, err := s.fs.ReadDir(s.root)
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", s.root, err)
	}
	var files []scannedFile
	for _, sh := range shards {
		if !sh.IsDir() || sh.Name() == quarantineDir {
			continue
		}
		ents, err := s.fs.ReadDir(s.root + "/" + sh.Name())
		if err != nil {
			return fmt.Errorf("store: scan shard %s: %w", sh.Name(), err)
		}
		for _, e := range ents {
			if e.IsDir() {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue // deleted mid-scan
			}
			files = append(files, scannedFile{shard: sh.Name(), name: e.Name(),
				size: info.Size(), mtimeNS: info.ModTime().UnixNano()})
		}
	}
	// Oldest first: pushing in mtime order leaves the most recently
	// written entries at the front of the LRU list.
	for i := 1; i < len(files); i++ {
		for j := i; j > 0 && files[j].mtimeNS < files[j-1].mtimeNS; j-- {
			files[j], files[j-1] = files[j-1], files[j]
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range files {
		rep.Scanned++
		path := s.root + "/" + f.shard + "/" + f.name
		if strings.HasPrefix(f.name, ".tmp-") {
			// A temp file that survived a crash mid-write: by protocol it
			// was never acked, but quarantine it anyway — never delete.
			rep.Quarantined = append(rep.Quarantined, s.quarantineLocked(path, f.name, "orphan-temp", f.size))
			continue
		}
		data, err := s.fs.ReadFile(path)
		if err != nil {
			rep.Quarantined = append(rep.Quarantined, s.quarantineLocked(path, f.name, "unreadable", f.size))
			continue
		}
		if _, reason := parseEntry(f.name, data); reason != "" {
			rep.Quarantined = append(rep.Quarantined, s.quarantineLocked(path, f.name, reason, f.size))
			continue
		}
		s.index[f.name] = s.ll.PushFront(&entry{key: f.name, size: int64(len(data))})
		s.bytes += int64(len(data))
		rep.Recovered++
	}
	return nil
}

// quarantineLocked moves one damaged file into quarantine/ (never
// deleting it) and appends a structured record to the report file; s.mu
// is held. Failures to move are logged but never fatal: a store that
// cannot quarantine still serves every healthy entry.
func (s *Store) quarantineLocked(path, key, reason string, size int64) QuarantinedEntry {
	s.tmpSeq++
	qname := fmt.Sprintf("%s.%d.%s", key, s.tmpSeq, reason)
	q := QuarantinedEntry{Key: key, Reason: reason, SizeBytes: size,
		QuarantinePath: quarantineDir + "/" + qname}
	if err := s.fs.Rename(path, s.root+"/"+q.QuarantinePath); err != nil {
		s.logf("store: quarantine %s: %v", path, err)
		return q
	}
	s.logf("store: quarantined %s (%s, %d bytes)", key, reason, size)
	if line, err := json.Marshal(q); err == nil {
		if f, err := s.fs.OpenAppend(s.root + "/" + quarantineDir + "/" + reportFile); err == nil {
			f.Write(append(line, '\n'))
			f.Sync()
			f.Close()
		}
	}
	return q
}

// shardOf returns the two-character directory a key lives under. Keys
// start with 16 hex characters of the program FNV, so shards are
// uniform.
func shardOf(key string) string { return key[:2] }

// validKey rejects keys that cannot safely be filenames. Content
// addresses are hex-and-dash strings; anything else is a caller bug.
func validKey(key string) error {
	if len(key) < 3 {
		return fmt.Errorf("store: key %q too short", key)
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("store: key %q contains unsafe character %q", key, r)
		}
	}
	if strings.HasPrefix(key, ".") {
		return fmt.Errorf("store: key %q may not start with a dot", key)
	}
	return nil
}

// encodeEntry renders the on-disk form: a checksummed header line
// ("warpstore1 <key> <payload-len> <fnv64a-hex>\n") followed by the
// payload bytes.
func encodeEntry(key string, payload []byte) []byte {
	h := fnv.New64a()
	h.Write(payload)
	hdr := fmt.Sprintf("%s %s %d %016x\n", headerMagic, key, len(payload), h.Sum64())
	out := make([]byte, 0, len(hdr)+len(payload))
	out = append(out, hdr...)
	return append(out, payload...)
}

// parseEntry verifies an on-disk entry against the key it is filed
// under and returns the payload, or a non-empty reason string
// classifying the damage.
func parseEntry(key string, data []byte) (payload []byte, reason string) {
	nl := -1
	for i, b := range data {
		if b == '\n' {
			nl = i
			break
		}
		if i > 512 {
			break // headers are short; a missing newline is corruption
		}
	}
	if nl < 0 {
		return nil, "truncated"
	}
	var magic, gotKey, sum string
	var n int
	if _, err := fmt.Sscanf(string(data[:nl]), "%s %s %d %s", &magic, &gotKey, &n, &sum); err != nil {
		return nil, "bad-header"
	}
	if magic != headerMagic {
		return nil, "bad-magic"
	}
	if gotKey != key {
		return nil, "key-mismatch"
	}
	payload = data[nl+1:]
	if len(payload) != n {
		return nil, "short-payload"
	}
	h := fnv.New64a()
	h.Write(payload)
	if fmt.Sprintf("%016x", h.Sum64()) != sum {
		return nil, "checksum-mismatch"
	}
	return payload, ""
}

// Get returns the payload stored under key and refreshes its access
// recency. A damaged entry is quarantined on the spot and reported as a
// miss — the daemon keeps serving, and a resubmission repopulates the
// key.
func (s *Store) Get(key string) ([]byte, bool) {
	// Read outside the lock: an eviction (or an eviction followed by a
	// re-put) can race us, but any bytes that verify are the value for
	// this key (content addressing). A failed read loops back to the
	// index check, which distinguishes the cases by index-entry identity:
	// key gone → eviction (miss); a different element → a re-put raced us
	// (retry against the fresh file); the same element still indexed with
	// its file unreadable → real damage (files are only ever moved away by
	// GC or dropCorrupt, which also remove the element, under the lock).
	for {
		s.mu.Lock()
		el, ok := s.index[key]
		if !ok {
			s.misses++
			s.mu.Unlock()
			return nil, false
		}
		s.ll.MoveToFront(el)
		s.mu.Unlock()

		// Only an indexed key becomes a path: the daemon passes any URL
		// path segment here, and shardOf needs two characters.
		path := s.root + "/" + shardOf(key) + "/" + key
		data, err := s.fs.ReadFile(path)
		if err != nil {
			s.mu.Lock()
			el2, still := s.index[key]
			s.mu.Unlock()
			if !still {
				s.mu.Lock()
				s.misses++
				s.mu.Unlock()
				return nil, false
			}
			if el2 != el {
				continue
			}
			s.dropCorrupt(el, key, path, "unreadable", 0)
			return nil, false
		}
		payload, reason := parseEntry(key, data)
		if reason == "" {
			s.mu.Lock()
			s.hits++
			s.mu.Unlock()
			return payload, true
		}
		s.dropCorrupt(el, key, path, reason, int64(len(data)))
		return nil, false
	}
}

// dropCorrupt removes a damaged entry from the index and quarantines
// its file, in one s.mu hold (see Put), provided el — the index entry
// the damaged read went through — is still the key's: once GC or a
// re-put has replaced it, the damaged file is gone already.
func (s *Store) dropCorrupt(el *list.Element, key, path, reason string, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.corrupt++
	s.misses++
	if s.index[key] != el {
		return
	}
	e := s.ll.Remove(el).(*entry)
	delete(s.index, key)
	s.bytes -= e.size
	s.quarantineLocked(path, key, reason, size)
	s.quarantined++
}

// Put durably stores payload under key: the temp file is written and
// fsynced, then renamed into place with the index update and GC, then
// the directory is fsynced. Re-putting an existing key only refreshes
// recency — content addressing makes overwrites value-identical by
// construction.
//
// One rule decides who indexes or drops a key: whoever moves its file,
// in the same s.mu hold as the move. Put renames and indexes under
// s.mu; GC removes and dropCorrupt quarantines under it too. So an
// indexed key always has its file on disk: with the lock dropped between
// a move and the index update, another writer's move of the same path
// could land in the gap.
func (s *Store) Put(key string, payload []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	if el, ok := s.index[key]; ok {
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return nil
	}
	s.tmpSeq++
	tmpName := fmt.Sprintf(".tmp-%d-%s", s.tmpSeq, key)
	s.mu.Unlock()

	data := encodeEntry(key, payload)
	dir := s.root + "/" + shardOf(key)
	if err := s.fs.MkdirAll(dir); err != nil {
		return fmt.Errorf("store: mkdir shard: %w", err)
	}
	tmp, err := writeTemp(s.fs, dir, tmpName, data)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if err := s.fs.Rename(tmp, dir+"/"+key); err != nil {
		s.mu.Unlock()
		s.fs.Remove(tmp) // best-effort; Open quarantines survivors
		return fmt.Errorf("store: rename %s: %w", tmp, err)
	}
	if _, ok := s.index[key]; !ok {
		s.index[key] = s.ll.PushFront(&entry{key: key, size: int64(len(data))})
		s.bytes += int64(len(data))
	}
	s.puts++
	s.gcLocked(key)
	s.mu.Unlock()
	if err := s.fs.SyncDir(dir); err != nil {
		return fmt.Errorf("store: fsync dir %s: %w", dir, err)
	}
	return nil
}

// gcLocked evicts least-recently-accessed entries (never the key just
// written) until the byte bound holds, returning how many were evicted.
// Eviction deletes — only damage quarantines; GC'd results are
// reproducible on demand from the deterministic engine.
func (s *Store) gcLocked(keep string) int {
	n := 0
	for s.bytes > s.opt.MaxBytes {
		el := s.ll.Back()
		if el == nil {
			break
		}
		e := el.Value.(*entry)
		if e.key == keep {
			break // a single entry larger than the bound stays resident
		}
		s.ll.Remove(el)
		delete(s.index, e.key)
		s.bytes -= e.size
		s.gcEvictions++
		n++
		path := s.root + "/" + shardOf(e.key) + "/" + e.key
		if err := s.fs.Remove(path); err != nil {
			s.logf("store: gc remove %s: %v", e.key, err)
		}
	}
	return n
}

// Delete removes the entry under key, index and file in one s.mu hold
// (the rule Put documents), as GC does. A key the store does not hold is
// a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[key]
	if !ok {
		return nil
	}
	s.ll.Remove(el)
	delete(s.index, key)
	s.bytes -= el.Value.(*entry).size
	if err := s.fs.Remove(s.root + "/" + shardOf(key) + "/" + key); err != nil {
		return fmt.Errorf("store: remove %s: %w", key, err)
	}
	return nil
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats is a point-in-time view of store occupancy and health, shaped
// for /v1/stats.
type Stats struct {
	// Entries and Bytes describe live occupancy; MaxBytes the GC bound.
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
	// Hits, Misses and Puts are cumulative since Open.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
	// GCEvictions counts entries deleted by the size cap; Quarantined
	// counts files moved aside (recovery scan and read-time detection);
	// CorruptReads counts read-time verification failures.
	GCEvictions  int64 `json:"gc_evictions"`
	Quarantined  int64 `json:"quarantined"`
	CorruptReads int64 `json:"corrupt_reads"`
}

// Stats returns cumulative counters and current occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Entries: len(s.index), Bytes: s.bytes, MaxBytes: s.opt.MaxBytes,
		Hits: s.hits, Misses: s.misses, Puts: s.puts,
		GCEvictions: s.gcEvictions, Quarantined: s.quarantined, CorruptReads: s.corrupt}
}

// The sweep's memory of finished runs, and its crash-tolerant resumption.
// A Journal holds one entry per finished simulation, keyed by the spec's
// content key (ContentKey, collect.go): a spec another experiment of the
// same invocation already ran replays instead of simulating again. An
// entry is the run's manifest record (sweepRecord: machine-total
// counters, without the experiment tag and wall time, which the collector
// adds), so replay hands the experiments exactly what a simulation does
// and a sweep that replays renders byte-identical tables and manifests.
// With a directory behind it (cmd/experiments -resume) every entry is
// also a file of an internal/store there: the same checksummed,
// atomically written and fsynced entries warpsimd keeps. The journal
// files a record under its content key plus journalSuffix and warpsimd
// files its per-SM manifest under the bare key, so one directory can
// serve both tools and neither shadows the other's entries. Interrupting
// a sweep (a crash, a kill, a power cut mid-write) loses at most the runs
// in flight; on the next invocation finished specs replay from the store
// (their results were verified before journaling) and only unfinished
// work simulates.
package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"warpsched/internal/metrics"
	"warpsched/internal/store"
)

// journalSuffix ends the store key of every journal entry, keeping it
// apart from the manifest warpsimd files under the bare content key. An
// entry of the format before records (a JSON sim.Result under
// retiredSuffix) would decode into a record with every field zero, so the
// suffix changed with the payload: such entries are never looked up,
// their runs simulate once more, and record deletes each one as it files
// the record that replaces it.
const (
	journalSuffix = ".rec"
	retiredSuffix = ".run"
)

// Journal is a crash-tolerant store of finished runs. One Journal serves
// a whole parallel sweep; lookup and record are safe under Jobs > 1.
type Journal struct {
	st *store.Store // nil for a journal with no directory behind it

	mu      sync.Mutex
	entries map[string]metrics.RunRecord // every run recorded or replayed by this invocation
	hits    int
}

// OpenJournal opens (or creates) the journal kept in the directory at
// path; the empty path gives a journal with nothing on disk, which only
// remembers the runs of this invocation. The directory is an
// internal/store: opening it verifies every entry and moves damaged ones
// (a truncated or bit-flipped file, a temp file a killed writer left)
// into its quarantine/, where they miss and their runs simulate again —
// Dropped counts them. An entry under a key this build would not compute
// (another sim.Version, an edited program) is never looked up, so its
// run simulates again.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{entries: make(map[string]metrics.RunRecord)}
	if path == "" {
		return j, nil
	}
	if fi, err := os.Stat(path); err == nil && !fi.IsDir() {
		return nil, fmt.Errorf("exp: journal %s is a file: the one-line-per-run journal format is retired and nothing reads it, so it can be deleted; -resume now takes a directory", path)
	}
	st, _, err := store.Open(path, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("exp: opening journal: %w", err)
	}
	j.st = st
	return j, nil
}

// Close has nothing to release: the journal holds no open file, and every
// recorded entry is already durable when record returns.
func (j *Journal) Close() error { return nil }

// Len returns the number of entries in the journal's directory (found at
// open plus recorded since, whichever tool wrote them) when it has one,
// else the runs remembered by this invocation.
func (j *Journal) Len() int {
	if j.st != nil {
		return j.st.Len()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Hits reports how many runs were satisfied from the journal instead of
// being re-simulated.
func (j *Journal) Hits() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hits
}

// Dropped counts the files the store moved to quarantine/ — damaged
// entries and orphaned temp files, found at open or on a later read —
// whose runs simulate once more. It is zero for a journal with no
// directory.
func (j *Journal) Dropped() int {
	if j.st == nil {
		return 0
	}
	return int(j.st.Stats().Quarantined)
}

// lookup replays a finished run's record: from this invocation's memory,
// else from the store.
func (j *Journal) lookup(key string) (metrics.RunRecord, bool) {
	j.mu.Lock()
	rec, ok := j.entries[key]
	j.mu.Unlock()
	if !ok && j.st != nil {
		rec, ok = j.load(key)
	}
	if !ok {
		return metrics.RunRecord{}, false
	}
	j.mu.Lock()
	j.entries[key] = rec
	j.hits++
	j.mu.Unlock()
	return rec, true
}

// load reads one record from the store, which has already verified the
// bytes against their checksum and the key in their header. A payload
// that does not decode is a miss.
func (j *Journal) load(key string) (metrics.RunRecord, bool) {
	data, ok := j.st.Get(key + journalSuffix)
	if !ok {
		return metrics.RunRecord{}, false
	}
	rec, err := metrics.DecodeRunRecord(data)
	return rec, err == nil
}

// record journals one finished run's record (success or deterministic
// failure): durably first when there is a directory, then in memory. The
// record's bytes are a function of its key: it holds no wall time, no
// build stamp and nothing of the clock's activity counters, which alone
// depend on -no-ff. Once the record is durable, the run's retired-format
// twin, if the directory holds one, is deleted.
func (j *Journal) record(key string, rec metrics.RunRecord) error {
	if j.st != nil {
		data, err := json.Marshal(rec)
		if err == nil {
			err = j.st.Put(key+journalSuffix, data)
		}
		if err != nil {
			return fmt.Errorf("exp: journaling %s: %w", key, err)
		}
		// The run is journaled either way; a retired file that fails to
		// go is dead bytes that nothing looks up.
		_ = j.st.Delete(key + retiredSuffix)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries[key] = rec
	return nil
}

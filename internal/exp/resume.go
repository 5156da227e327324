// The sweep's memory of finished runs, and its crash-tolerant resumption.
// A Journal holds one entry per finished simulation, keyed by the spec's
// content key (ContentKey, collect.go): a spec another experiment of the
// same invocation already ran replays instead of simulating again. With
// a directory behind it (cmd/experiments -resume) every entry is also a
// file of an internal/store there: the same checksummed, atomically
// written and fsynced entries warpsimd keeps. The journal files a run
// under its content key plus journalSuffix and warpsimd files its
// manifest under the bare key, so one directory can serve both tools and
// neither shadows the other's entries. Interrupting a sweep (a crash, a
// kill, a power cut mid-write) loses at most the runs in flight; on the
// next invocation finished specs replay from the store (their results
// were verified before journaling) and only unfinished work simulates.
// Because replay restores the exact Result fields and error strings the
// original run produced, a sweep that replays renders byte-identical
// tables and manifests.
package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"warpsched/internal/sim"
	"warpsched/internal/store"
)

// journalSuffix ends the store key of every journal entry, keeping it
// apart from the manifest warpsimd files under the bare content key.
const journalSuffix = ".run"

// journalEntry is one finished run: its error string (empty on success —
// replay restores it verbatim so manifests compare equal) and what a
// table can consume of the result. Its JSON is the payload stored under
// the run's content key plus journalSuffix.
type journalEntry struct {
	Err string      `json:"err,omitempty"`
	Res *sim.Result `json:"res,omitempty"`
}

// Journal is a crash-tolerant store of finished runs. One Journal serves
// a whole parallel sweep; lookup and record are safe under Jobs > 1.
type Journal struct {
	st *store.Store // nil for a journal with no directory behind it

	mu      sync.Mutex
	entries map[string]journalEntry // every run recorded or replayed by this invocation
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
	j := &Journal{entries: make(map[string]journalEntry)}
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

// lookup replays a finished run: from this invocation's memory, else
// from the store. The restored error is a plain string — typed detail
// (hang reports, panic stacks) lives only in the original invocation —
// but its message is verbatim, so records and tables built from a replay
// match the original byte for byte.
func (j *Journal) lookup(key string) (Outcome, bool) {
	j.mu.Lock()
	e, ok := j.entries[key]
	j.mu.Unlock()
	if !ok && j.st != nil {
		e, ok = j.load(key)
	}
	if !ok {
		return Outcome{}, false
	}
	j.mu.Lock()
	j.entries[key] = e
	j.hits++
	j.mu.Unlock()
	var o Outcome
	if e.Res != nil {
		res := *e.Res
		o.Res = &res
	}
	if e.Err != "" {
		o.Err = errors.New(e.Err)
	}
	return o, true
}

// load reads one entry from the store, which has already verified the
// bytes against their checksum and the key in their header. A payload
// that does not decode is a miss.
func (j *Journal) load(key string) (journalEntry, bool) {
	var e journalEntry
	data, ok := j.st.Get(key + journalSuffix)
	if !ok || json.Unmarshal(data, &e) != nil {
		return journalEntry{}, false
	}
	return e, true
}

// record journals one finished run (success or deterministic failure):
// durably first when there is a directory, then in memory. What is kept
// of the result is a shallow copy without the memory image and the PC
// profile — kernel output is verified before an entry is written, so
// replay never needs them — and without the clock's activity counters,
// which no table reads and which alone depend on -no-ff. So an entry's
// bytes are a function of its key; that includes ConfirmedSIBs, which
// the engine sorts by PC rather than leaving in the SIB-PT map's
// iteration order.
func (j *Journal) record(key string, o Outcome) error {
	var e journalEntry
	if o.Res != nil {
		res := *o.Res
		res.Memory, res.PCProfile = nil, nil
		res.FFJumps, res.FFSkippedCycles, res.FFSkippedSMTicks = 0, 0, 0
		e.Res = &res
	}
	if o.Err != nil {
		e.Err = o.Err.Error()
	}
	if j.st != nil {
		data, err := json.Marshal(e)
		if err == nil {
			err = j.st.Put(key+journalSuffix, data)
		}
		if err != nil {
			return fmt.Errorf("exp: journaling %s: %w", key, err)
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries[key] = e
	return nil
}

// The sweep's memory of finished runs, and its crash-tolerant resumption.
// A Journal holds one entry per finished simulation, keyed by the spec's
// content key (ContentKey, collect.go): a spec another experiment of the
// same invocation already ran replays instead of simulating again. With
// a file behind it (cmd/experiments -resume) it is also an append-only
// JSONL log: interrupting a sweep — a crash, a kill, a power cut
// mid-write — loses at most the entry being appended; on the next
// invocation finished specs replay from the journal (their results were
// verified before journaling) and only unfinished work simulates.
// Because replay restores the exact Result fields and error strings the
// original run produced, a sweep that replays renders byte-identical
// tables and manifests.
package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"warpsched/internal/core"
	"warpsched/internal/metrics"
	"warpsched/internal/sim"
	"warpsched/internal/stats"
)

// journalResult is the JSON-serializable subset of sim.Result a table can
// consume. Memory is deliberately omitted: kernel output is verified
// before an entry is written, so replay never needs it.
type journalResult struct {
	Stats            stats.Sim               `json:"stats"`
	PerSM            []stats.Sim             `json:"per_sm,omitempty"`
	Detection        core.DetectionMetrics   `json:"detection"`
	PerSMDetection   []core.DetectionMetrics `json:"per_sm_detection,omitempty"`
	ConfirmedSIBs    []int32                 `json:"confirmed_sibs,omitempty"`
	MaxSIBPTEntries  int                     `json:"max_sibpt_entries,omitempty"`
	FinalDelayLimits []int64                 `json:"final_delay_limits,omitempty"`
	Metrics          *metrics.Snapshot       `json:"metrics,omitempty"`
}

func toJournalResult(r *sim.Result) *journalResult {
	if r == nil {
		return nil
	}
	return &journalResult{
		Stats:            r.Stats,
		PerSM:            r.PerSM,
		Detection:        r.Detection,
		PerSMDetection:   r.PerSMDetection,
		ConfirmedSIBs:    r.ConfirmedSIBs,
		MaxSIBPTEntries:  r.MaxSIBPTEntries,
		FinalDelayLimits: r.FinalDelayLimits,
		Metrics:          r.Metrics,
	}
}

func (jr *journalResult) toResult() *sim.Result {
	if jr == nil {
		return nil
	}
	return &sim.Result{
		Stats:            jr.Stats,
		PerSM:            jr.PerSM,
		Detection:        jr.Detection,
		PerSMDetection:   jr.PerSMDetection,
		ConfirmedSIBs:    jr.ConfirmedSIBs,
		MaxSIBPTEntries:  jr.MaxSIBPTEntries,
		FinalDelayLimits: jr.FinalDelayLimits,
		Metrics:          jr.Metrics,
	}
}

// journalEntry is one JSONL line: the spec's content key, the run's
// error string (empty on success — replay restores it verbatim so
// manifests compare equal), and the result.
type journalEntry struct {
	Key string         `json:"key"`
	Err string         `json:"err,omitempty"`
	Res *journalResult `json:"res,omitempty"`
}

// Journal is a crash-tolerant store of finished runs. One Journal serves
// a whole parallel sweep; lookup and record are safe under Jobs > 1.
type Journal struct {
	mu      sync.Mutex
	path    string   // "" for a journal with no file behind it
	f       *os.File // nil when file-less, and after Close
	entries map[string]journalEntry
	hits    int
}

// OpenJournal loads (or creates) the journal at path; the empty path
// gives a journal with no file behind it, which reads and writes nothing
// and only remembers the runs of this invocation. A truncated final
// line — the signature of a run killed mid-append — is dropped silently;
// corruption anywhere else is an error, since dropping a complete entry
// would silently re-simulate work the user believes finished. An entry
// under a key this build would not compute (an older key format, another
// sim.Version, an edited program) is never looked up, so its run
// simulates again.
func OpenJournal(path string) (*Journal, error) {
	if path == "" {
		return &Journal{entries: make(map[string]journalEntry)}, nil
	}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("exp: reading journal: %w", err)
	}
	entries := make(map[string]journalEntry)
	lines := bytes.Split(data, []byte("\n"))
	keep, next := len(data), 0 // bytes that stay: all but a torn tail; where the next line starts
	for i, line := range lines {
		start := next
		next += len(line) + 1
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if jerr := json.Unmarshal(line, &e); jerr != nil || e.Key == "" {
			if allBlank(lines[i+1:]) {
				keep = start
				break // torn final append: resume re-runs that one spec
			}
			return nil, fmt.Errorf("exp: journal %s line %d corrupt: %v", path, i+1, jerr)
		}
		entries[e.Key] = e
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("exp: opening journal for append: %w", err)
	}
	// The next append must start a line of its own: left in place, a torn
	// tail — or a last entry killed before its newline — would fuse with
	// it into damage that the open after that finds mid-file and refuses.
	if keep < len(data) {
		err = f.Truncate(int64(keep))
	} else if keep > 0 && data[keep-1] != '\n' {
		_, err = f.WriteString("\n")
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("exp: repairing journal tail: %w", err)
	}
	return &Journal{path: path, f: f, entries: entries}, nil
}

func allBlank(lines [][]byte) bool {
	for _, l := range lines {
		if len(bytes.TrimSpace(l)) != 0 {
			return false
		}
	}
	return true
}

// Close closes the journal file, if there is one.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Len returns the number of loaded + appended entries; Hits the number of
// lookups served from the journal this invocation.
func (j *Journal) Len() int {
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

// lookup replays a finished run. The restored error is a plain string —
// typed detail (hang reports, panic stacks) lives only in the original
// invocation — but its message is verbatim, so records and tables built
// from a replay match the original byte for byte.
func (j *Journal) lookup(key string) (Outcome, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[key]
	if !ok {
		return Outcome{}, false
	}
	j.hits++
	o := Outcome{Res: e.Res.toResult()}
	if e.Err != "" {
		o.Err = errors.New(e.Err)
	}
	return o, true
}

// record journals one finished run (success or deterministic failure).
// Appends are serialized; each entry is a single JSONL line, so a crash
// mid-append corrupts at most the file's tail, which OpenJournal drops.
func (j *Journal) record(key string, o Outcome) error {
	e := journalEntry{Key: key, Res: toJournalResult(o.Res)}
	if o.Err != nil {
		e.Err = o.Err.Error()
	}
	if j.path == "" {
		j.mu.Lock()
		defer j.mu.Unlock()
		j.entries[key] = e
		return nil
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("exp: journaling %s: %w", key, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("exp: journal %s already closed", j.path)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("exp: journaling %s: %w", key, err)
	}
	j.entries[key] = e
	return nil
}

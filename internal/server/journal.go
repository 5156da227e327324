package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"warpsched/internal/store"
)

// journalLine is one JSONL record in the server's recovery journal:
// an admitted job (with its full request, so it can be resubmitted), a
// completion marker, or the max_id header a compaction writes so
// restarts never reuse the id of a job whose admit/done pair was
// compacted away. On restart, admits without a matching done are the
// jobs that were queued or running when the server died, and they are
// re-enqueued before the listener comes up.
type journalLine struct {
	Admit *journalAdmit `json:"admit,omitempty"`
	Done  string        `json:"done,omitempty"`
	MaxID int64         `json:"max_id,omitempty"`
}

type journalAdmit struct {
	ID  string      `json:"id"`
	Req *JobRequest `json:"req"`
}

// JournalStats is the journal's health summary in GET /v1/stats: the
// current file size and what the startup compaction kept, dropped and
// salvaged.
type JournalStats struct {
	// SizeBytes is the journal file's current size (compacted at startup,
	// then growing one line per admit/done until the next restart).
	SizeBytes int64 `json:"size_bytes"`
	// LastCompactionKept and LastCompactionDropped count journal lines
	// kept (unfinished admits) and dropped (finished admit/done pairs and
	// the previous max_id header) by the compaction at startup.
	LastCompactionKept    int64 `json:"last_compaction_kept"`
	LastCompactionDropped int64 `json:"last_compaction_dropped"`
	// SalvagedLines counts corrupt lines skipped while reading the
	// journal back — torn final appends and bit-flipped interior lines
	// alike. When non-zero, the damaged original is preserved at
	// <journal>.corrupt before compaction rewrites the file.
	SalvagedLines int64 `json:"salvaged_lines"`
}

// journal is an append-only JSONL file of job admissions and
// completions. Appends are serialized and flushed line-at-a-time, so a
// crash loses at most the final, possibly torn, line — which recovery
// tolerates (the matching job is simply re-run; determinism makes the
// re-run identical). On every open the journal is compacted: finished
// admit/done pairs are dropped, unfinished admits and a max_id header
// are rewritten through the store's atomic write protocol
// (store.WriteFileAtomic), so the file's size tracks in-flight work
// instead of growing forever.
type journal struct {
	mu    sync.Mutex
	path  string
	f     *os.File
	w     *bufio.Writer
	size  int64
	stats JournalStats // compaction fields fixed after open; size lives above
}

// openJournal opens (creating if needed) the journal at path and
// returns it plus the admitted-but-unfinished jobs from any previous
// incarnation, in admission order, and the highest numeric job id seen
// anywhere in the file (admits, done markers and the max_id header all
// count, so restarts never reuse the id of an already-finished job).
// Corrupt lines — a torn final append or interior damage — are
// salvaged around, never fatal: the damaged line's record is lost (its
// job, if admitted, is simply not recovered), the rest of the journal
// is kept, and the damaged original is copied to <path>.corrupt before
// the compaction rewrite.
func openJournal(path string) (*journal, []journalAdmit, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, 0, err
	}
	var pending []journalAdmit
	var maxID, salvaged, parsed int64
	seen := func(id string) {
		var n int64
		if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > maxID {
			maxID = n
		}
	}
	doneIdx := make(map[string]bool)
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var jl journalLine
		if jerr := json.Unmarshal(line, &jl); jerr != nil {
			salvaged++
			continue
		}
		parsed++
		switch {
		case jl.Admit != nil:
			pending = append(pending, *jl.Admit)
			seen(jl.Admit.ID)
		case jl.Done != "":
			doneIdx[jl.Done] = true
			seen(jl.Done)
		case jl.MaxID > 0:
			if jl.MaxID > maxID {
				maxID = jl.MaxID
			}
		}
	}
	unfinished := pending[:0]
	for _, a := range pending {
		if !doneIdx[a.ID] {
			unfinished = append(unfinished, a)
		}
	}
	if salvaged > 0 {
		// Keep the damaged original for forensics before compaction
		// overwrites it; salvage never silently destroys evidence.
		if werr := os.WriteFile(path+".corrupt", data, 0o644); werr != nil {
			return nil, nil, 0, fmt.Errorf("server: journal %s: save corrupt copy: %w", path, werr)
		}
	}
	j := &journal{path: path}
	j.stats.SalvagedLines = salvaged
	if err := j.compact(unfinished, maxID, parsed); err != nil {
		return nil, nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	return j, unfinished, maxID, nil
}

// compact rewrites the journal to its minimal equivalent — a max_id
// header plus the still-unfinished admits — through a temp file, fsync,
// atomic rename and directory fsync, so a crash mid-compaction leaves
// the previous journal or the new one, durably, and nothing between.
func (j *journal) compact(unfinished []journalAdmit, maxID, parsed int64) error {
	var buf bytes.Buffer
	if maxID > 0 {
		line, err := json.Marshal(journalLine{MaxID: maxID})
		if err != nil {
			return fmt.Errorf("server: journal compact: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	for i := range unfinished {
		line, err := json.Marshal(journalLine{Admit: &unfinished[i]})
		if err != nil {
			return fmt.Errorf("server: journal compact: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := store.WriteFileAtomic(j.path, buf.Bytes()); err != nil {
		return fmt.Errorf("server: journal compact: %w", err)
	}
	j.size = int64(buf.Len())
	j.stats.LastCompactionKept = int64(len(unfinished))
	j.stats.LastCompactionDropped = parsed - int64(len(unfinished))
	return nil
}

// statsSnapshot returns the journal's current size alongside the
// startup-compaction summary.
func (j *journal) statsSnapshot() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.stats
	st.SizeBytes = j.size
	return st
}

func (j *journal) append(jl journalLine) error {
	data, err := json.Marshal(jl)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(append(data, '\n')); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	j.size += int64(len(data) + 1)
	return nil
}

// admit journals a job admission before it is enqueued, so a crash
// between admission and completion leaves a recoverable record.
func (j *journal) admit(id string, req *JobRequest) error {
	return j.append(journalLine{Admit: &journalAdmit{ID: id, Req: req}})
}

// done journals a job completion. Results themselves live in the cache
// and the persistent store, not the journal — a store-backed server
// writes the done marker only after the result is durably persisted, so
// an acked result either survives on disk or its job is re-run
// (deterministically, to identical bytes) from the journal.
func (j *journal) done(id string) error {
	return j.append(journalLine{Done: id})
}

// Close flushes and closes the journal file.
func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

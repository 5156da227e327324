package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalRecovery feeds openJournal bytes it did not write. Recovery
// salvages, so whatever they are it must open: every non-empty line is
// counted as either parsed or salvaged, the damaged original is kept
// beside the journal exactly when something was salvaged, and the
// compacted file it leaves opens again to the same unfinished jobs and
// the same id high-water mark with nothing left to salvage.
func FuzzJournalRecovery(f *testing.F) {
	admit := func(id string, req *JobRequest) string {
		line, err := json.Marshal(journalLine{Admit: &journalAdmit{ID: id, Req: req}})
		if err != nil {
			f.Fatal(err)
		}
		return string(line) + "\n"
	}
	live := admit("j1", inlineReq(fastIters)) + admit("j2", &JobRequest{Kernel: "HT", Config: JobConfig{SMs: 2, Quick: true}}) +
		`{"done":"j1"}` + "\n"
	f.Add([]byte(live))
	f.Add([]byte(`{"max_id":7}` + "\n" + admit("j9", inlineReq(fastIters))))
	f.Add([]byte("{\"admit\":{\"id\":\"j1\",\"req\":{\"kernel\":\"HT\"}}}\nGARBAGE\n{\"done\":\"j1\"}\n")) // TestJournalCorruption's
	f.Add([]byte(live + "\x00\x7fgarbage not json\n{\"op\":\"admit\",\"id\":\"tr"))                        // the chaos harness's
	f.Add([]byte(live[:len(live)/2]))                                                                      // torn inside an admit
	f.Add(bytes.Replace([]byte(live), []byte(`"id"`), []byte(`"i\x84"`), 1))                               // one flipped byte
	f.Add([]byte{})
	// Request fields the wire no longer has: an admit carrying them replays
	// without them.
	f.Add(bytes.Replace([]byte(live), []byte(`"req":{`), []byte(`"req":{"deadline_ms":50,"priority":3,`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		var lines int64
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) > 0 {
				lines++
			}
		}
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, pending, maxID, err := openJournal(path)
		if err != nil {
			t.Fatalf("openJournal: %v", err)
		}
		st := j.statsSnapshot()
		j.Close()
		if got := st.SalvagedLines + st.LastCompactionKept + st.LastCompactionDropped; got != lines {
			t.Errorf("%d salvaged + %d kept + %d dropped = %d, file has %d non-empty lines",
				st.SalvagedLines, st.LastCompactionKept, st.LastCompactionDropped, got, lines)
		}
		saved, err := os.ReadFile(path + ".corrupt")
		switch {
		case st.SalvagedLines > 0 && !bytes.Equal(saved, data):
			t.Errorf("%d lines salvaged but the original is not preserved: %v", st.SalvagedLines, err)
		case st.SalvagedLines == 0 && !errors.Is(err, os.ErrNotExist):
			t.Errorf("nothing salvaged, yet %s.corrupt exists (read error: %v)", path, err)
		}

		j2, pending2, maxID2, err := openJournal(path)
		if err != nil {
			t.Fatalf("reopen of the compacted journal: %v", err)
		}
		defer j2.Close()
		if again := j2.statsSnapshot().SalvagedLines; again != 0 {
			t.Errorf("compacted journal had %d lines to salvage", again)
		}
		if maxID2 != maxID {
			t.Errorf("max id %d became %d across a restart", maxID, maxID2)
		}
		// Compared as the JSON the journal stores: an empty slice, here or
		// inside a request, reads back as a nil one.
		want, _ := json.Marshal(append([]journalAdmit{}, pending...))
		got, _ := json.Marshal(append([]journalAdmit{}, pending2...))
		if !bytes.Equal(got, want) {
			t.Errorf("unfinished jobs changed across a restart:\n%s\nvs\n%s", want, got)
		}
	})
}

package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// FuzzOpenJournal feeds OpenJournal bytes it did not write. Whatever they
// are it must not panic; a damaged tail — and only a tail — is dropped;
// damage before a complete line is an error, never a silently shorter
// journal; every entry that loads replays to an outcome whose journal
// line survives another write and read unchanged; and a journal that
// opened keeps opening after the next append.
func FuzzOpenJournal(f *testing.F) {
	real := filepath.Join(f.TempDir(), "fig3.jsonl")
	j, err := OpenJournal(real)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := Fig3(Cfg{Quick: true, Journal: j}); err != nil {
		f.Fatal(err)
	}
	j.Close()
	fig3, err := os.ReadFile(real)
	if err != nil {
		f.Fatal(err)
	}
	first := fig3[:bytes.IndexByte(fig3, '\n')+1]
	f.Add(fig3)
	f.Add(append(append([]byte(nil), first...), `{"key":"torn","res":{"sta`...)) // the line CI tears
	f.Add(first[:len(first)-1])                                                  // killed between the entry and its newline
	f.Add([]byte(`{"key":"aaaa"}` + "\n" + `garbage not json` + "\n" + `{"key":"bbbb"}` + "\n"))
	f.Add([]byte(`{"key":"a","err":"boom\nstack"}` + "\n\n" + `{"key":"a","res":{"stats":{"Cycles":7},"detection":{}}}` + "\n \n"))
	f.Add([]byte("\x00\x7fgarbage not json\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The oracle: which keys sit on lines before the first bad one,
		// and whether anything but blanks follows it.
		keys := map[string]bool{}
		damaged, midFile := false, false
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
			if damaged {
				midFile = true
				break
			}
			var e journalEntry
			if json.Unmarshal(line, &e) != nil || e.Key == "" {
				damaged = true
				continue
			}
			keys[e.Key] = true
		}

		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if midFile {
			if err == nil {
				t.Fatal("damage before a complete line was accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("a journal damaged at most in its tail failed to open: %v", err)
		}
		if j.Len() != len(keys) {
			t.Fatalf("loaded %d entries, want %d", j.Len(), len(keys))
		}

		// Replay everything into a second journal, twice over: the line an
		// outcome is journaled as must not change by being read back.
		sorted := make([]string, 0, len(keys))
		for key := range keys {
			sorted = append(sorted, key)
		}
		sort.Strings(sorted)
		rejournal := func(from *Journal, name string) (string, []byte) {
			path := filepath.Join(t.TempDir(), name)
			to, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range sorted {
				o, ok := from.lookup(key)
				if !ok {
					t.Fatalf("entry %q loaded but does not replay", key)
				}
				if err := to.record(key, o); err != nil {
					t.Fatal(err)
				}
			}
			if err := to.Close(); err != nil {
				t.Fatal(err)
			}
			out, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return path, out
		}
		oncePath, once := rejournal(j, "once.jsonl")
		again, err := OpenJournal(oncePath)
		if err != nil {
			t.Fatalf("re-journaled entries do not load: %v", err)
		}
		_, twice := rejournal(again, "twice.jsonl")
		again.Close()
		if !bytes.Equal(once, twice) {
			t.Fatalf("journal lines changed by a read-back:\n%s\nvs\n%s", once, twice)
		}

		// An append after whatever tail the file had, then a restart.
		if err := j.record("appended", Outcome{}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		keys["appended"] = true
		j, err = OpenJournal(path)
		if err != nil {
			t.Fatalf("journal does not reopen after one append: %v", err)
		}
		defer j.Close()
		if j.Len() != len(keys) {
			t.Fatalf("reopened with %d entries, want %d", j.Len(), len(keys))
		}
	})
}

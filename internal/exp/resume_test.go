package exp

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"warpsched/internal/metrics"
)

func openTestJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestRunnerResumeByteIdentical is the crash-recovery contract end to
// end: run a sweep journaled, tear the journal the way a killed process
// would (drop the last entry, leave a truncated append), resume, and
// require byte-identical manifests with only the lost spec re-simulated.
func TestRunnerResumeByteIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	specs := []Spec{testSpec(16), testSpec(32), testSpec(64), testSpec(128)}

	sweep := func(j *Journal) ([]metrics.RunRecord, []Outcome) {
		col := NewCollector("test", nil)
		c := Cfg{Jobs: 2, Collect: col, Journal: j}
		outs := c.runAll(specs)
		if err := firstErr(outs); err != nil {
			t.Fatal(err)
		}
		runs := append([]metrics.RunRecord(nil), col.Manifest().Runs...)
		for i := range runs {
			runs[i].WallMS = 0 // the one legitimately nondeterministic field
		}
		return runs, outs
	}

	j1 := openTestJournal(t, path)
	full, outs1 := sweep(j1)
	if j1.Len() != len(specs) || j1.Hits() != 0 {
		t.Fatalf("first pass journaled %d entries with %d hits, want %d/0", j1.Len(), j1.Hits(), len(specs))
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the journal: lose the final entry, leave a torn half-line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if len(lines) != len(specs) {
		t.Fatalf("journal has %d lines, want %d", len(lines), len(specs))
	}
	torn := append(bytes.Join(lines[:3], []byte("\n")), '\n')
	torn = append(torn, []byte(`{"key":"deadbeef","res":{"stats":{"cy`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openTestJournal(t, path)
	defer j2.Close()
	if j2.Len() != 3 {
		t.Fatalf("torn journal loaded %d entries, want 3", j2.Len())
	}
	resumed, outs2 := sweep(j2)
	if j2.Hits() != 3 {
		t.Errorf("resume replayed %d runs, want 3", j2.Hits())
	}
	if j2.Len() != len(specs) {
		t.Errorf("resume left %d journal entries, want %d (lost spec re-journaled)", j2.Len(), len(specs))
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Errorf("resumed manifest differs from uninterrupted run:\n%+v\nvs\n%+v", full, resumed)
	}
	for i := range outs1 {
		if !reflect.DeepEqual(outs1[i].Res.Stats, outs2[i].Res.Stats) {
			t.Errorf("spec %d: resumed stats differ", i)
		}
	}
}

// TestRunnerResumeRendersIdenticalTable runs a real experiment once
// normally and once resumed from a complete journal, requiring the
// rendered table — the artifact the user actually reads — to be
// byte-identical.
func TestRunnerResumeRendersIdenticalTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	render := func(j *Journal) string {
		r, err := Fig3(Cfg{Quick: true, Jobs: 4, Journal: j})
		if err != nil {
			t.Fatal(err)
		}
		return r.String()
	}
	j1 := openTestJournal(t, path)
	fresh := render(j1)
	entries := j1.Len()
	if entries == 0 {
		t.Fatal("experiment journaled nothing")
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := openTestJournal(t, path)
	defer j2.Close()
	replayed := render(j2)
	if j2.Hits() != entries {
		t.Errorf("replay hit %d of %d entries", j2.Hits(), entries)
	}
	if fresh != replayed {
		t.Errorf("resumed table differs:\n--- fresh ---\n%s--- replayed ---\n%s", fresh, replayed)
	}
}

// TestRunnerResumeReplaysFailures: failed runs are journaled too — a
// resumed sweep reproduces the exact error string without re-executing
// the failing configuration.
func TestRunnerResumeReplaysFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	runs := 0
	sp := testSpec(64)
	k := panicKernel()
	k.Verify = func([]uint32) error { runs++; panic("deterministic bug") }
	sp.Kernel = k

	j1 := openTestJournal(t, path)
	o1 := Cfg{Journal: j1}.runOne(&sp, 0, 1, nil)
	if o1.Err == nil {
		t.Fatal("sabotaged spec succeeded")
	}
	j1.Close()
	if runs != 1 {
		t.Fatalf("spec executed %d times, want 1", runs)
	}

	j2 := openTestJournal(t, path)
	defer j2.Close()
	o2 := Cfg{Journal: j2}.runOne(&sp, 0, 1, nil)
	if runs != 1 {
		t.Errorf("resume re-executed a journaled failure (%d executions)", runs)
	}
	if o2.Err == nil || o2.Err.Error() != o1.Err.Error() {
		t.Errorf("replayed error differs:\n%v\nvs\n%v", o2.Err, o1.Err)
	}
}

// TestOpenJournalRejectsMidFileCorruption: only the final line may be
// torn; corruption earlier in the file must fail loudly rather than
// silently re-running work.
func TestOpenJournalRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	content := `{"key":"aaaa"}` + "\n" + `garbage not json` + "\n" + `{"key":"bbbb"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
	var pathErr *os.PathError
	if j, err := OpenJournal(filepath.Join(t.TempDir(), "fresh.jsonl")); err != nil {
		if !errors.As(err, &pathErr) {
			t.Fatalf("fresh journal open failed: %v", err)
		}
	} else {
		j.Close()
	}
}

package exp

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/isa"
	"warpsched/internal/kernels"
	"warpsched/internal/metrics"
	"warpsched/internal/sim"
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

// aluSpec is a counted ALU loop under the kernel name "alu-loop" whose
// increment is step: two steps give two programs that VariantHash — which
// sees the name, geometry and parameters — cannot tell apart.
func aluSpec(t *testing.T, step int) Spec {
	t.Helper()
	prog, err := isa.Parse("alu-loop", fmt.Sprintf(`
  ld.param %%r2, 0
  mov %%r1, 0
loop:
  add %%r1, %%r1, %d
  setp.lt %%p1, %%r1, %%r2
  @%%p1 bra loop
  exit
`, step))
	if err != nil {
		t.Fatal(err)
	}
	k := &kernels.Kernel{Name: "alu-loop", Launch: sim.Launch{Prog: prog,
		GridCTAs: 1, CTAThreads: 32, MemWords: 64, Params: []uint32{200}}}
	return Spec{GPU: config.GTX480().Scaled(1), Sched: config.GTO, BOWS: bowsOff(),
		DDOS: config.DefaultDDOS(), Kernel: k}
}

// TestJournalKeyedByContent: the journal's key covers the program text
// and the engine version, so editing one instruction under the same
// kernel name misses and re-simulates, and an entry an older build wrote
// under a bare variant hash loads without error and is never replayed.
func TestJournalKeyedByContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	orig, edited := aluSpec(t, 1), aluSpec(t, 2)
	if VariantHash(orig) != VariantHash(edited) {
		t.Fatal("the two programs differ in variant hash; the test needs them equal")
	}

	j1 := openTestJournal(t, path)
	first := Cfg{Journal: j1}.runOne(&orig, 0, 1, nil)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"key":%q,"res":{"stats":{"Cycles":1},"detection":{}}}`+"\n", VariantHash(orig))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openTestJournal(t, path)
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("journal loaded %d entries, want 2 (the run and the old-format line)", j2.Len())
	}
	again := Cfg{Journal: j2}.runOne(&orig, 0, 1, nil)
	if j2.Hits() != 1 || again.Res.Stats.Cycles != first.Res.Stats.Cycles {
		t.Errorf("unchanged program: %d hits, %d cycles, want 1 hit and %d cycles",
			j2.Hits(), again.Res.Stats.Cycles, first.Res.Stats.Cycles)
	}
	fresh := Cfg{Journal: j2}.runOne(&edited, 0, 1, nil)
	if fresh.Err != nil {
		t.Fatal(fresh.Err)
	}
	if j2.Hits() != 1 || j2.Len() != 3 {
		t.Errorf("edited program: %d hits and %d entries, want 1 and 3 (a miss, journaled under its own key)", j2.Hits(), j2.Len())
	}
	if c := fresh.Res.Stats.Cycles; c == first.Res.Stats.Cycles || c == 1 {
		t.Errorf("edited program reports %d cycles: replayed, not simulated", c)
	}
}

// TestRunnerFilelessJournal: with no file behind it the journal still
// remembers, across runAll calls and under parallel workers (this is the
// test the -race step reaches it through), and Close has nothing to do.
func TestRunnerFilelessJournal(t *testing.T) {
	j := openTestJournal(t, "")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	c := Cfg{Jobs: 2, Journal: j}
	specs := []Spec{testSpec(16), testSpec(32), testSpec(64), testSpec(128)}
	first := c.runAll(specs[:3])
	if err := firstErr(first); err != nil {
		t.Fatal(err)
	}
	all := c.runAll(specs)
	if j.Hits() != 3 || j.Len() != 4 {
		t.Errorf("%d hits and %d entries, want 3 and 4", j.Hits(), j.Len())
	}
	for i := range first {
		if !reflect.DeepEqual(first[i].Res.Stats, all[i].Res.Stats) {
			t.Errorf("spec %d: replayed stats differ", i)
		}
	}
}

// TestSweepMemoReplaysRepeats: two experiments sharing one file-less
// journal, as every cmd/experiments invocation does. The TAGE-SIB study
// runs its DDOS rows on Table I's grid, so those 44 runs replay; both
// tables and the manifest are what two separate sweeps produce.
func TestSweepMemoReplaysRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick table1 and tagesib sweeps twice")
	}
	sweep := func(j *Journal) (string, string, *metrics.Manifest) {
		col := NewCollector("test", nil)
		c := Cfg{Quick: true, Collect: col, Journal: j, Exp: "table1"}
		t1, err := Table1(c)
		if err != nil {
			t.Fatal(err)
		}
		c.Exp = "tagesib"
		ts, err := TageSIB(c)
		if err != nil {
			t.Fatal(err)
		}
		return t1.String(), ts.String(), col.Manifest()
	}
	j := openTestJournal(t, "")
	t1, ts, got := sweep(j)
	const shared = 44
	if j.Hits() != shared || j.Len() != len(got.Runs)-shared {
		t.Errorf("%d replayed, %d remembered of %d runs; want %d replayed", j.Hits(), j.Len(), len(got.Runs), shared)
	}
	wantT1, wantTS, want := sweep(nil)
	if t1 != wantT1 || ts != wantTS {
		t.Errorf("tables differ from the sweep without a journal:\n%s%s--- want ---\n%s%s", t1, ts, wantT1, wantTS)
	}
	for _, d := range metrics.Diff(got, want, metrics.DiffOptions{RequireSameRuns: true}) {
		t.Error(d)
	}
}

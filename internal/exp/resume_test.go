package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/isa"
	"warpsched/internal/kernels"
	"warpsched/internal/metrics"
	"warpsched/internal/sim"
	"warpsched/internal/store"
)

func openTestJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// journalFiles lists the entry files of the journal directory at dir,
// quarantine/ aside, in name order.
func journalFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "??", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRunnerResumeByteIdentical is the crash-recovery contract end to
// end: run a sweep journaled, damage the journal the way a killed process
// and a bad disk would (one entry cut short, one temp file left behind),
// resume, and require byte-identical manifests with only the lost spec
// re-simulated.
func TestRunnerResumeByteIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	specs := []Spec{testSpec(16), testSpec(32), testSpec(64), testSpec(128)}

	sweep := func(j *Journal) ([]metrics.RunRecord, []metrics.RunRecord) {
		col := NewCollector("test", nil)
		c := Cfg{Jobs: 2, Collect: col, Journal: j}
		recs := c.runAll(specs)
		for _, r := range recs {
			if r.Err != "" {
				t.Fatal(r.Err)
			}
		}
		runs := append([]metrics.RunRecord(nil), col.Manifest().Runs...)
		for i := range runs {
			runs[i].WallMS = 0 // the one legitimately nondeterministic field
		}
		return runs, recs
	}

	j1 := openTestJournal(t, path)
	full, recs1 := sweep(j1)
	if j1.Len() != len(specs) || j1.Hits() != 0 {
		t.Fatalf("first pass journaled %d entries with %d hits, want %d/0", j1.Len(), j1.Hits(), len(specs))
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Lose the final entry to a short write, and leave the temp file of a
	// writer killed before its rename.
	files := journalFiles(t, path)
	if len(files) != len(specs) {
		t.Fatalf("journal has %d entry files, want %d", len(files), len(specs))
	}
	last := files[len(files)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(filepath.Dir(last), ".tmp-9-deadbeef")
	if err := os.WriteFile(orphan, []byte(`warpstore1 deadbeef 900 0123`), 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openTestJournal(t, path)
	defer j2.Close()
	if j2.Len() != 3 {
		t.Fatalf("damaged journal loaded %d entries, want 3", j2.Len())
	}
	if q := j2.Dropped(); q != 2 {
		t.Errorf("damaged journal dropped %d files, want 2", q)
	}
	resumed, recs2 := sweep(j2)
	if j2.Hits() != 3 {
		t.Errorf("resume replayed %d runs, want 3", j2.Hits())
	}
	if j2.Len() != len(specs) {
		t.Errorf("resume left %d journal entries, want %d (lost spec re-journaled)", j2.Len(), len(specs))
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Errorf("resumed manifest differs from uninterrupted run:\n%+v\nvs\n%+v", full, resumed)
	}
	if !reflect.DeepEqual(recs1, recs2) {
		t.Errorf("resumed records differ from the simulated ones:\n%+v\nvs\n%+v", recs1, recs2)
	}
}

// TestRunnerResumeRendersIdenticalTable runs a real experiment once
// normally and once resumed from a complete journal, requiring the
// rendered table — the artifact the user actually reads — to be
// byte-identical. Then one entry has a byte flipped: that run alone
// simulates again, the table is still the same bytes, and the damaged
// file is in quarantine/, not gone.
func TestRunnerResumeRendersIdenticalTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
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
	replayed := render(j2)
	if j2.Hits() != entries {
		t.Errorf("replay hit %d of %d entries", j2.Hits(), entries)
	}
	if fresh != replayed {
		t.Errorf("resumed table differs:\n--- fresh ---\n%s--- replayed ---\n%s", fresh, replayed)
	}
	j2.Close()

	victim := journalFiles(t, path)[entries/2]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0x20
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j3 := openTestJournal(t, path)
	defer j3.Close()
	if q := j3.Dropped(); q != 1 || j3.Len() != entries-1 {
		t.Errorf("one flipped byte: %d files dropped, %d entries left; want 1 and %d", q, j3.Len(), entries-1)
	}
	healed := render(j3)
	if j3.Hits() != entries-1 || j3.Len() != entries {
		t.Errorf("after the flip %d runs replayed and the journal holds %d, want %d and %d", j3.Hits(), j3.Len(), entries-1, entries)
	}
	if healed != fresh {
		t.Errorf("table differs after a damaged entry simulated again:\n--- fresh ---\n%s--- healed ---\n%s", fresh, healed)
	}
	moved, _ := filepath.Glob(filepath.Join(path, "quarantine", filepath.Base(victim)+".*.checksum-mismatch"))
	if len(moved) != 1 {
		t.Errorf("damaged entry not kept in quarantine/: %v", moved)
	}
}

// TestRunnerResumeRetiresOlderEntries: a directory written before the
// journal stored records holds {"err","res"} payloads (a JSON sim.Result)
// under ContentKey plus ".run". Such a payload decodes into a record with
// every field zero, so replaying one would fail the sweep "without
// counters". Instead none is looked up: every run simulates once, filing
// its record deletes the ".run" entry (so the directory holds one entry
// per run), the table is byte-identical, and the next invocation replays
// them all.
func TestRunnerResumeRetiresOlderEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	c := Cfg{Quick: true, Jobs: 2}
	render := func(j *Journal) string {
		c := c
		c.Journal = j
		r, err := Fig3(c)
		if err != nil {
			t.Fatal(err)
		}
		return r.String()
	}
	fresh := render(nil)

	st, _, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, specs := fig3Specs(c)
	for i, o := range c.Execute(specs) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		res := *o.Res
		res.Memory, res.PCProfile = nil, nil
		data, err := json.Marshal(struct {
			Err string      `json:"err,omitempty"`
			Res *sim.Result `json:"res,omitempty"`
		}{Res: &res})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(ContentKey(specs[i])+retiredSuffix, data); err != nil {
			t.Fatal(err)
		}
	}

	j := openTestJournal(t, path)
	if got := render(j); got != fresh {
		t.Errorf("table over older entries differs:\n--- fresh ---\n%s--- got ---\n%s", fresh, got)
	}
	if j.Hits() != 0 || j.Len() != len(specs) || j.Dropped() != 0 {
		t.Errorf("over %d older entries: %d replayed, journal holds %d, %d dropped; want 0, %d, 0",
			len(specs), j.Hits(), j.Len(), j.Dropped(), len(specs))
	}
	// Filing a run's record deleted its retired twin, file and all.
	retired, err := filepath.Glob(filepath.Join(path, "*", "*"+retiredSuffix))
	if err != nil || len(retired) != 0 {
		t.Errorf("after the resumed pass %d retired entries are left on disk (%v), want 0", len(retired), err)
	}
	again := openTestJournal(t, path)
	if got := render(again); got != fresh {
		t.Errorf("replayed table differs:\n--- fresh ---\n%s--- got ---\n%s", fresh, got)
	}
	if again.Hits() != len(specs) || again.Len() != len(specs) {
		t.Errorf("second invocation: %d of %d runs replayed, journal holds %d; want all and %d",
			again.Hits(), len(specs), again.Len(), len(specs))
	}
}

// TestRunnerResumeReplaysFailures: failed runs are journaled too — a
// resumed sweep reproduces the exact error string without re-executing
// the failing configuration.
func TestRunnerResumeReplaysFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	runs := 0
	sp := testSpec(64)
	k := panicKernel()
	k.Verify = func([]uint32) error { runs++; panic("deterministic bug") }
	sp.Kernel = k

	j1 := openTestJournal(t, path)
	r1 := Cfg{Journal: j1}.runOne(&sp, 0, 1, nil)
	if r1.Err == "" {
		t.Fatal("sabotaged spec succeeded")
	}
	j1.Close()
	if runs != 1 {
		t.Fatalf("spec executed %d times, want 1", runs)
	}

	j2 := openTestJournal(t, path)
	defer j2.Close()
	r2 := Cfg{Journal: j2}.runOne(&sp, 0, 1, nil)
	if runs != 1 {
		t.Errorf("resume re-executed a journaled failure (%d executions)", runs)
	}
	if r2.Err != r1.Err {
		t.Errorf("replayed error differs:\n%v\nvs\n%v", r2.Err, r1.Err)
	}
}

// TestOpenJournalRefusesRetiredFile: a regular file where the directory
// should be is a journal of the format before PR 24; the error says it
// can go, and the file is left as it was.
func TestOpenJournalRefusesRetiredFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	old := []byte(`{"key":"aaaa"}` + "\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenJournal(path)
	if err == nil || !strings.Contains(err.Error(), "retired") || strings.Contains(err.Error(), "\n") {
		t.Errorf("a journal file of the retired format: error %v, want one line naming it retired", err)
	}
	if now, _ := os.ReadFile(path); !bytes.Equal(now, old) {
		t.Errorf("refused file was rewritten to %q", now)
	}
}

// TestJournalSharesDirectoryWithWarpsimd: warpsimd files a one-run
// manifest under a spec's content key, and a journal opened on the same
// directory files that spec's run beside it, not over it. The run
// simulates once, replays after a reopen, and the manifest keeps its
// bytes.
func TestJournalSharesDirectoryWithWarpsimd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	sp := testSpec(16)
	manifest := []byte(`{"tool":"warpsimd","runs":[{"kernel":"HT","cycles":1}]}`)
	st, _, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(ContentKey(sp), manifest); err != nil {
		t.Fatal(err)
	}

	j1 := openTestJournal(t, path)
	first := Cfg{Journal: j1}.runOne(&sp, 0, 1, nil)
	if first.Err != "" || first.Cycles <= 1 || j1.Hits() != 0 {
		t.Fatalf("outcome %+v with %d hits: want a simulation, not a replay of the manifest", first, j1.Hits())
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openTestJournal(t, path)
	defer j2.Close()
	again := Cfg{Journal: j2}.runOne(&sp, 0, 1, nil)
	if j2.Hits() != 1 || j2.Dropped() != 0 || again.Err != "" || again.Cycles != first.Cycles {
		t.Errorf("after a reopen: %d hits, %d dropped, record %+v; want the run replayed with %d cycles",
			j2.Hits(), j2.Dropped(), again, first.Cycles)
	}
	if st, _, err = store.Open(path, store.Options{}); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(ContentKey(sp)); !ok || !bytes.Equal(got, manifest) {
		t.Errorf("warpsimd's entry under the content key now reads %q, want %q", got, manifest)
	}
}

// TestJournalPutErrorIsRunError: a run whose entry cannot be made durable
// (the disk is full) fails with that error and is not remembered as
// journaled; once there is space the same spec simulates and journals.
func TestJournalPutErrorIsRunError(t *testing.T) {
	fs := store.NewFaultFS(store.OS{}, 1, store.FaultConfig{WriteEvery: 1})
	st, _, err := store.Open(filepath.Join(t.TempDir(), "journal"), store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	j := &Journal{st: st, entries: make(map[string]metrics.RunRecord)}
	sp := testSpec(16)
	rec := Cfg{Journal: j}.runOne(&sp, 0, 1, nil)
	if !strings.HasSuffix(rec.Err, syscall.ENOSPC.Error()) || rec.Cycles == 0 {
		t.Fatalf("run on a full disk: err %q, %d cycles; want ENOSPC beside the result", rec.Err, rec.Cycles)
	}
	if _, ok := j.lookup(ContentKey(sp)); ok || j.Len() != 0 {
		t.Errorf("an entry that never reached the disk replays (journal holds %d)", j.Len())
	}
	fs.SetEnabled(false)
	if rec := (Cfg{Journal: j}).runOne(&sp, 0, 1, nil); rec.Err != "" || j.Len() != 1 || j.Hits() != 0 {
		t.Errorf("with space again: err %q, %d entries, %d hits; want a journaled simulation", rec.Err, j.Len(), j.Hits())
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
// kernel name misses and re-simulates, and an entry under a key this
// build does not compute (here the bare variant hash) is held without
// error and is never replayed.
func TestJournalKeyedByContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	orig, edited := aluSpec(t, 1), aluSpec(t, 2)
	if VariantHash(orig) != VariantHash(edited) {
		t.Fatal("the two programs differ in variant hash; the test needs them equal")
	}

	j1 := openTestJournal(t, path)
	first := Cfg{Journal: j1}.runOne(&orig, 0, 1, nil)
	if first.Err != "" {
		t.Fatal(first.Err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stale := []byte(`{"res":{"Stats":{"Cycles":1}}}`)
	if err := st.Put(VariantHash(orig), stale); err != nil {
		t.Fatal(err)
	}

	j2 := openTestJournal(t, path)
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("journal loaded %d entries, want 2 (the run and the one under another key)", j2.Len())
	}
	again := Cfg{Journal: j2}.runOne(&orig, 0, 1, nil)
	if j2.Hits() != 1 || again.Cycles != first.Cycles {
		t.Errorf("unchanged program: %d hits, %d cycles, want 1 hit and %d cycles",
			j2.Hits(), again.Cycles, first.Cycles)
	}
	fresh := Cfg{Journal: j2}.runOne(&edited, 0, 1, nil)
	if fresh.Err != "" {
		t.Fatal(fresh.Err)
	}
	if j2.Hits() != 1 || j2.Len() != 3 {
		t.Errorf("edited program: %d hits and %d entries, want 1 and 3 (a miss, journaled under its own key)", j2.Hits(), j2.Len())
	}
	if c := fresh.Cycles; c == first.Cycles || c == 1 {
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
	first, err := c.runs(specs[:3], false)
	if err != nil {
		t.Fatal(err)
	}
	all, err := c.runs(specs, false)
	if err != nil {
		t.Fatal(err)
	}
	if j.Hits() != 3 || j.Len() != 4 {
		t.Errorf("%d hits and %d entries, want 3 and 4", j.Hits(), j.Len())
	}
	for i := range first {
		if !reflect.DeepEqual(first[i], all[i]) {
			t.Errorf("spec %d: replayed run differs", i)
		}
	}
}

// TestSweepMemoReplaysRepeats: two experiments sharing one file-less
// journal, as every cmd/experiments invocation does. The ablation's GTO
// and adaptive(DDOS) arms are Figure 9's GTO and GTO+BOWS columns, so
// those 16 runs replay; both tables and the manifest are what two
// separate sweeps produce.
func TestSweepMemoReplaysRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick fig9 and ablation sweeps twice")
	}
	sweep := func(j *Journal) (string, string, *metrics.Manifest) {
		col := NewCollector("test", nil)
		c := Cfg{Quick: true, Collect: col, Journal: j, Exp: "fig9"}
		f9, err := ExecEnergy(c, c.fermi(), "fig9")
		if err != nil {
			t.Fatal(err)
		}
		c.Exp = "ablation"
		ab, err := Ablation(c)
		if err != nil {
			t.Fatal(err)
		}
		return f9.String(), ab.String(), col.Manifest()
	}
	j := openTestJournal(t, "")
	f9, ab, got := sweep(j)
	const shared = 16
	if j.Hits() != shared || j.Len() != len(got.Runs)-shared {
		t.Errorf("%d replayed, %d remembered of %d runs; want %d replayed", j.Hits(), j.Len(), len(got.Runs), shared)
	}
	wantF9, wantAb, want := sweep(nil)
	if f9 != wantF9 || ab != wantAb {
		t.Errorf("tables differ from the sweep without a journal:\n%s%s--- want ---\n%s%s", f9, ab, wantF9, wantAb)
	}
	for _, d := range metrics.Diff(got, want, metrics.DiffOptions{RequireSameRuns: true}) {
		t.Error(d)
	}
}

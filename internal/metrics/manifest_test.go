package metrics

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleRun(kernel string, cycles int64) RunRecord {
	return RunRecord{
		Kernel: kernel, GPU: "GTX480/2SM", Sched: "GTO", BOWS: "ddos/adaptive",
		Variant: "abcd", Cycles: cycles, WallMS: 12.5,
		Counters: map[string]int64{"sm0.exec.warp_instrs": 100, "sm0.mem.l1_hits": 7},
		Derived:  map[string]float64{"sm0.energy.total_pj": 123.456},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest("experiments", map[string]any{"quick": true, "exp": "all"})
	if err := m.Add(sampleRun("HT", 5000)); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(sampleRun("ATM", 7000)); err != nil {
		t.Fatal(err)
	}
	m.WallMS = 321

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Emit → parse → equal, modulo Config (JSON round-trips map values
	// through interface{}; compare its hash instead).
	if got.Schema != ManifestSchema || got.Tool != m.Tool || got.ConfigHash != m.ConfigHash {
		t.Errorf("header mismatch: %+v vs %+v", got, m)
	}
	if !reflect.DeepEqual(got.Runs, m.Runs) {
		t.Errorf("runs differ after round trip:\n%+v\n%+v", got.Runs, m.Runs)
	}
	if d := Diff(got, m, DiffOptions{RequireSameRuns: true}); len(d) > 0 {
		t.Errorf("round-tripped manifest diffs: %v", d)
	}
}

func TestManifestAddVerifiesDuplicates(t *testing.T) {
	m := NewManifest("test", nil)
	if err := m.Add(sampleRun("HT", 5000)); err != nil {
		t.Fatal(err)
	}
	// Identical duplicate: deduplicated silently.
	if err := m.Add(sampleRun("HT", 5000)); err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(m.Runs))
	}
	// Same key, different counters: the variant hash failed to separate
	// two configurations — must error.
	bad := sampleRun("HT", 5001)
	if err := m.Add(bad); err == nil {
		t.Fatal("conflicting duplicate accepted")
	}
	// Identity is Key(): fields that differ but join to an equal key
	// through a '|' inside a field are one run.
	if err := m.Add(RunRecord{Exp: "a|b", Kernel: "c", Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(RunRecord{Exp: "a", Kernel: "b|c", Cycles: 1}); err != nil || len(m.Runs) != 2 {
		t.Fatalf("an equal key was stored twice (%d runs, %v)", len(m.Runs), err)
	}
	if err := m.Add(RunRecord{Exp: "a", Kernel: "b|c", Cycles: 2}); err == nil ||
		!strings.Contains(err.Error(), "duplicate run a|b|c||||| disagrees") {
		t.Fatalf("a disagreeing run under an equal key: %v", err)
	}
}

func TestManifestDiff(t *testing.T) {
	golden := NewManifest("test", nil)
	if err := golden.Add(sampleRun("HT", 5000)); err != nil {
		t.Fatal(err)
	}

	// A superset manifest matches by default (want ⊆ got)...
	got := NewManifest("test", nil)
	if err := got.Add(sampleRun("HT", 5000)); err != nil {
		t.Fatal(err)
	}
	if err := got.Add(sampleRun("ATM", 7000)); err != nil {
		t.Fatal(err)
	}
	if d := Diff(got, golden, DiffOptions{}); len(d) > 0 {
		t.Errorf("superset should match golden subset: %v", d)
	}
	// ...but is flagged under RequireSameRuns.
	if d := Diff(got, golden, DiffOptions{RequireSameRuns: true}); len(d) != 1 || !strings.Contains(d[0], "unexpected") {
		t.Errorf("RequireSameRuns diff = %v", d)
	}

	// Any drifted counter fails.
	drift := NewManifest("test", nil)
	r := sampleRun("HT", 5000)
	r.Counters = map[string]int64{"sm0.exec.warp_instrs": 101, "sm0.mem.l1_hits": 7}
	if err := drift.Add(r); err != nil {
		t.Fatal(err)
	}
	d := Diff(drift, golden, DiffOptions{})
	if len(d) != 1 || !strings.Contains(d[0], "sm0.exec.warp_instrs") {
		t.Errorf("drift diff = %v", d)
	}

	// Missing and extra counters both fail (schema drift is drift).
	skew := NewManifest("test", nil)
	r = sampleRun("HT", 5000)
	r.Counters = map[string]int64{"sm0.exec.warp_instrs": 100, "sm0.new_counter": 1}
	if err := skew.Add(r); err != nil {
		t.Fatal(err)
	}
	d = Diff(skew, golden, DiffOptions{})
	if len(d) != 2 {
		t.Errorf("schema-skew diff = %v, want missing + unexpected", d)
	}

	// Derived values compare within tolerance.
	near := NewManifest("test", nil)
	r = sampleRun("HT", 5000)
	r.Derived = map[string]float64{"sm0.energy.total_pj": 123.456 * (1 + 1e-12)}
	if err := near.Add(r); err != nil {
		t.Fatal(err)
	}
	if d := Diff(near, golden, DiffOptions{FloatTol: 1e-9}); len(d) > 0 {
		t.Errorf("within-tolerance derived flagged: %v", d)
	}
	if d := Diff(near, golden, DiffOptions{}); len(d) == 0 {
		t.Error("exact-mode derived drift not flagged")
	}

	// Wall time differences never matter.
	slow := NewManifest("test", nil)
	r = sampleRun("HT", 5000)
	r.WallMS = 1e9
	if err := slow.Add(r); err != nil {
		t.Fatal(err)
	}
	if d := Diff(slow, golden, DiffOptions{}); len(d) > 0 {
		t.Errorf("wall time compared: %v", d)
	}

	// Every kind of difference at once: the lines come in a fixed order —
	// cycles, err, counters, unexpected counters, derived, unexpected
	// derived — each block sorted by name, missing and drifted names
	// interleaved.
	want := sampleRun("HT", 5000)
	want.Counters = map[string]int64{"c": 3, "a": 1, "e": 5, "b": 2, "d": 4}
	want.Derived = map[string]float64{"y": 2, "w": 0.5, "x": 1, "v": 0}
	wantM := NewManifest("test", nil)
	if err := wantM.Add(want); err != nil {
		t.Fatal(err)
	}
	r = sampleRun("HT", 5001)
	r.Err = "watchdog"
	r.Counters = map[string]int64{"e": 6, "z": 1, "c": 3, "a": 9, "m": 0}
	r.Derived = map[string]float64{"x": 1.5, "u": 7, "v": 0, "t": 1}
	gotM := NewManifest("test", nil)
	if err := gotM.Add(r); err != nil {
		t.Fatal(err)
	}
	key := want.Key()
	var wantLines []string
	for _, l := range []string{
		"cycles = 5001, want 5000",
		`err = "watchdog", want ""`,
		"counter a = 9, want 1",
		"counter b: missing",
		"counter d: missing",
		"counter e = 6, want 5",
		"counter m: unexpected (absent from golden — regenerate with -update?)",
		"counter z: unexpected (absent from golden — regenerate with -update?)",
		"derived w: missing",
		"derived x = 1.5, want 1 (tol 0)",
		"derived y: missing",
		"derived t: unexpected (absent from golden — regenerate with -update?)",
		"derived u: unexpected (absent from golden — regenerate with -update?)",
	} {
		wantLines = append(wantLines, "run "+key+": "+l)
	}
	if d := Diff(gotM, wantM, DiffOptions{}); !reflect.DeepEqual(d, wantLines) {
		t.Errorf("every-kind diff =\n%s\nwant\n%s", strings.Join(d, "\n"), strings.Join(wantLines, "\n"))
	}
}

func TestHashJSONStable(t *testing.T) {
	type cfg struct {
		A int
		B string
	}
	h1 := HashJSON(cfg{1, "x"})
	h2 := HashJSON(cfg{1, "x"})
	h3 := HashJSON(cfg{2, "x"})
	if h1 != h2 {
		t.Error("hash not deterministic")
	}
	if h1 == h3 {
		t.Error("hash ignores field values")
	}
	if len(h1) != 16 {
		t.Errorf("hash length = %d, want 16", len(h1))
	}
}

// TestSortFullWritesFile shuffles full.json's records and checks that
// WriteFile sorts them back to the file's exact bytes.
func TestSortFullWritesFile(t *testing.T) {
	want := readTestFile(t, fullPath)
	m, err := ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(m.Runs), func(i, j int) { m.Runs[i], m.Runs[j] = m.Runs[j], m.Runs[i] })
	path := filepath.Join(t.TempDir(), "full.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if got := readTestFile(t, path); !bytes.Equal(got, want) {
		t.Errorf("re-sorted full.json differs from the file (%d vs %d bytes)", len(got), len(want))
	}
}

// BenchmarkDiffFull compares full.json (611 runs) with itself under
// RequireSameRuns, the golden and regrow gates' check, and re-sorts it.
func BenchmarkDiffFull(b *testing.B) {
	m, err := ReadFile(fullPath)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("diff", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if d := Diff(m, m, DiffOptions{RequireSameRuns: true}); len(d) > 0 {
				b.Fatal(d[0])
			}
		}
	})
	b.Run("sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Sort()
		}
	})
}

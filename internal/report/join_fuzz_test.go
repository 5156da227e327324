package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"warpsched/internal/metrics"
)

// FuzzManifestJoin feeds damaged manifest bytes through the manifest
// decoder (metrics.ReadFile) and then Join. Each stage may refuse the
// input with an error, but neither may panic, and a join that succeeds
// holds every run the decoder produced — each under its key and its
// experiment — never a silently short set. Seeded with the golden quick
// manifest and a slice of the archived full-scale one.
func FuzzManifestJoin(f *testing.F) {
	quick, err := os.ReadFile("../exp/testdata/golden/quick.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(quick)
	full, err := metrics.ReadFile("testdata/full.json")
	if err != nil {
		f.Fatal(err)
	}
	slice := *full
	slice.Runs = nil
	for i := 0; i < len(full.Runs); i += 97 { // a few runs of several experiments
		slice.Runs = append(slice.Runs, full.Runs[i])
	}
	data, err := json.MarshalIndent(&slice, "", " ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	path := filepath.Join(f.TempDir(), "manifest.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := metrics.ReadFile(path)
		if err != nil {
			return
		}
		s, err := Join(m)
		if err != nil {
			return
		}
		keys := map[string]bool{}
		for i := range m.Runs {
			keys[m.Runs[i].Key()] = true
		}
		grouped := 0
		for _, e := range s.Experiments() {
			grouped += len(s.Runs(e))
		}
		if n := len(s.Manifest().Runs); n != len(keys) || grouped != len(keys) {
			t.Fatalf("decoded %d distinct runs, joined %d, grouped %d", len(keys), n, grouped)
		}
		for k := range keys {
			if s.Manifest().Run(k) == nil {
				t.Fatalf("decoded run %s is missing from the join", k)
			}
		}
	})
}

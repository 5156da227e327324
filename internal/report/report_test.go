package report

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"warpsched/internal/metrics"
)

func miniManifest(cfg map[string]any, runs ...metrics.RunRecord) *metrics.Manifest {
	m := metrics.NewManifest("test", cfg)
	for _, r := range runs {
		if err := m.Add(r); err != nil {
			panic(err)
		}
	}
	m.Sort()
	return m
}

func rec(exp, kernel, sched, bows, variant string, cycles int64) metrics.RunRecord {
	return metrics.RunRecord{
		Exp: exp, Kernel: kernel, GPU: "GTX480/4SM", Sched: sched,
		BOWS: bows, DDOS: "XOR-m8k8-t4-l8", Variant: variant, Cycles: cycles,
		Counters: map[string]int64{"exec.thread_instrs": 100},
	}
}

func TestJoinConfigMismatch(t *testing.T) {
	a := miniManifest(map[string]any{"quick": true})
	b := miniManifest(map[string]any{"quick": false})
	_, err := Join(a, b)
	var je *JoinError
	if !errors.As(err, &je) || je.Reason != ReasonConfig {
		t.Fatalf("want JoinError{ReasonConfig}, got %v", err)
	}
}

func TestJoinConflict(t *testing.T) {
	a := miniManifest(nil, rec("fig9", "HT", "GTO", "off", "v1", 100))
	b := miniManifest(nil, rec("fig9", "HT", "GTO", "off", "v1", 200))
	_, err := Join(a, b)
	var je *JoinError
	if !errors.As(err, &je) || je.Reason != ReasonConflict {
		t.Fatalf("want JoinError{ReasonConflict}, got %v", err)
	}
}

func TestJoinMergesDisjointShards(t *testing.T) {
	a := miniManifest(nil, rec("fig9", "HT", "GTO", "off", "v1", 100))
	b := miniManifest(nil, rec("fig9", "HT", "LRR", "off", "v2", 150))
	s, err := Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.Runs("fig9")); n != 2 {
		t.Fatalf("joined set has %d fig9 runs, want 2", n)
	}
	// Identical records in both shards are deduplicated, not conflicts.
	if _, err := Join(a, a); err != nil {
		t.Fatalf("self-join: %v", err)
	}
}

func TestLoadSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "old.json")
	if err := os.WriteFile(p, []byte(`{"schema":1,"tool":"experiments","runs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(p)
	var je *JoinError
	if !errors.As(err, &je) || je.Reason != ReasonSchema {
		t.Fatalf("want JoinError{ReasonSchema}, got %v", err)
	}
	if !errors.Is(err, metrics.ErrSchemaMismatch) {
		t.Fatalf("error %v does not unwrap to ErrSchemaMismatch", err)
	}
	if je.Path != p {
		t.Fatalf("JoinError.Path = %q, want %q", je.Path, p)
	}
}

func TestFindMissingAndAmbiguous(t *testing.T) {
	r2 := rec("fig16", "HT", "GTO", "off", "v2", 120)
	s, err := Join(miniManifest(nil,
		rec("fig9", "HT", "GTO", "off", "v1", 100),
		r2,
		rec("fig16", "HT", "GTO", "off", "v3", 130)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FindDDOS("fig9", "HT", "GTO", "off", ""); err != nil {
		t.Fatalf("FindDDOS existing: %v", err)
	}
	_, err = s.FindDDOS("fig9", "HT", "CAWA", "off", "")
	var mre *MissingRunError
	if !errors.As(err, &mre) {
		t.Fatalf("want MissingRunError, got %v", err)
	}
	if mre.Sched != "CAWA" {
		t.Fatalf("MissingRunError coordinates wrong: %+v", mre)
	}
	// fig16 reuses kernel/sched/bows across launch variants: ambiguous.
	if _, err := s.FindDDOS("fig16", "HT", "GTO", "off", ""); err == nil {
		t.Fatal("FindDDOS on ambiguous coordinates should error")
	}
	// FindDDOS disambiguates by detector only, not launch: still ambiguous.
	if _, err := s.FindDDOS("fig16", "HT", "GTO", "off", "XOR-m8k8-t4-l8"); err == nil {
		t.Fatal("FindDDOS on launch-ambiguous coordinates should error")
	}
	_, err = s.FindDDOS("fig9", "HT", "GTO", "off", "MODULO-m8k8-t4-l8")
	if !errors.As(err, &mre) || mre.DDOS == "" {
		t.Fatalf("want MissingRunError with DDOS set, got %v", err)
	}
}

func TestLoadFullManifest(t *testing.T) {
	s, err := Load("testdata/full.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Build(s.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	for name, sec := range map[string]bool{
		"fig9": rep.Fig9 != nil, "fig15": rep.Fig15 != nil,
		"delay": rep.Delay != nil, "fig14": rep.Fig14 != nil,
		"table1": rep.Table1 != nil, "ablation": rep.Ablation != nil,
	} {
		if !sec {
			t.Errorf("full manifest did not derive section %s", name)
		}
	}
	if rep.Fig9 != nil && len(rep.Fig9.Kernels) == 0 {
		t.Error("fig9 section has no kernels")
	}
}

// BenchmarkJoinFull joins the 857 runs of the full-scale manifest: one
// identity comparison per pair of runs, then the sort by key.
func BenchmarkJoinFull(b *testing.B) {
	m, err := metrics.ReadFile("testdata/full.json")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Join(m); err != nil {
			b.Fatal(err)
		}
	}
}

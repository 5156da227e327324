package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"warpsched/internal/metrics"
)

// manifestBytes serializes a manifest with every wall-time field zeroed —
// the only fields that legitimately vary between two runs of the same
// sweep (the manifest carries no timestamps by design).
func manifestBytes(t *testing.T, m *metrics.Manifest) []byte {
	t.Helper()
	m.Sort()
	m.WallMS = 0
	for i := range m.Runs {
		m.Runs[i].WallMS = 0
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestManifestByteIdenticalAcrossJobsAndClocks is the strongest
// determinism claim the harness can make: modulo wall times, the
// serialized manifest of the quick golden sweep — which since the
// scheduler zoo includes WASP-scheduled and TAGE-detected variants — is
// byte-for-byte identical across worker counts and both clock
// implementations — config hash included, because neither knob
// participates in variant hashing.
func TestManifestByteIdenticalAcrossJobsAndClocks(t *testing.T) {
	base, err := GoldenManifest(Cfg{Quick: true, Jobs: 1, NoFastForward: true})
	if err != nil {
		t.Fatal(err)
	}
	want := manifestBytes(t, base)
	if got := manifestBytes(t, quickGoldenManifest(t)); !bytes.Equal(want, got) {
		t.Errorf("jobs=0 noff=false: manifest bytes diverged from the per-cycle serial sweep")
	}
	for _, c := range []Cfg{
		{Quick: true, Jobs: 8},
		{Quick: true, Jobs: 4, NoFastForward: true},
	} {
		label := fmt.Sprintf("jobs=%d noff=%v", c.Jobs, c.NoFastForward)
		m, err := GoldenManifest(c)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got := manifestBytes(t, m); !bytes.Equal(want, got) {
			t.Errorf("%s: manifest bytes diverged from the per-cycle serial sweep", label)
		}
	}
}

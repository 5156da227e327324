// Run manifests: the machine-readable artifact every cmd/warpsim and
// cmd/experiments invocation can emit (-stats-json <path>). A manifest
// records the tool and its configuration (with a stable hash), the git
// revision the binary was built from, wall time, and one RunRecord per
// simulation with the full counter snapshot. internal/exp's golden-stats
// harness diffs manifests: integer counters exactly, derived floats
// within tolerance, wall times and revisions never.
package metrics

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strings"
)

// ManifestSchema is the current manifest schema version; bump on any
// incompatible change to the JSON layout. Schema 2 added the per-run
// experiment tag and the human-readable BOWS/DDOS parameter descriptors
// that internal/report joins on, plus the DDOS detection-quality
// counters.
const ManifestSchema = 2

// ErrSchemaMismatch is wrapped by ReadFile when a manifest on disk was
// written under a different schema version than this build understands.
// Callers that join several manifests (internal/report) test for it with
// errors.Is to distinguish "regenerate this file" from I/O failures.
var ErrSchemaMismatch = errors.New("manifest schema mismatch")

// RunRecord is one simulation's identity and counter dump.
type RunRecord struct {
	// Exp names the experiment that submitted the run (registry key,
	// e.g. "fig9"); internal/report groups a manifest's records by it.
	// Empty in manifests from tools without an experiment registry
	// (cmd/warpsim).
	Exp string `json:"exp,omitempty"`
	// Kernel, GPU, Sched, BOWS and DDOS identify the run for humans;
	// Variant is a stable hash over the full configuration (machine,
	// scheduler, BOWS and DDOS parameters, launch geometry and
	// parameters) that keeps runs distinct when the human-readable fields
	// coincide (e.g. the fig16 bucket sweep reuses kernel name "HT").
	Kernel string `json:"kernel"`
	GPU    string `json:"gpu"`
	Sched  string `json:"sched"`
	BOWS   string `json:"bows"`
	// DDOS is the detector parameter descriptor (e.g. "XOR-m8k8-t4-l8"),
	// the join key for the Table I sensitivity report.
	DDOS    string `json:"ddos,omitempty"`
	Variant string `json:"variant,omitempty"`
	// Cycles is the headline result (stats.Sim.Cycles).
	Cycles int64 `json:"cycles"`
	// Err is set when the run failed (e.g. watchdog abort); counters then
	// describe the partial state.
	Err string `json:"err,omitempty"`
	// WallMS is host wall time for this run (never golden-compared).
	WallMS float64 `json:"wall_ms"`
	// Counters and Derived are the run's metrics snapshot.
	Counters map[string]int64   `json:"counters"`
	Derived  map[string]float64 `json:"derived,omitempty"`
}

// Key returns the record's identity within a manifest.
func (r *RunRecord) Key() string {
	return strings.Join([]string{r.Exp, r.Kernel, r.GPU, r.Sched, r.BOWS, r.DDOS, r.Variant}, "|")
}

// sameFields reports whether r and o agree on the seven identity fields.
func (r *RunRecord) sameFields(o *RunRecord) bool {
	return r.Variant == o.Variant && r.Exp == o.Exp && r.Kernel == o.Kernel && r.GPU == o.GPU &&
		r.Sched == o.Sched && r.BOWS == o.BOWS && r.DDOS == o.DDOS
}

// Manifest is one tool invocation's machine-readable output.
type Manifest struct {
	Schema     int            `json:"schema"`
	Tool       string         `json:"tool"`
	GitRev     string         `json:"git_rev,omitempty"`
	ConfigHash string         `json:"config_hash,omitempty"`
	Config     map[string]any `json:"config,omitempty"`
	WallMS     float64        `json:"wall_ms"`
	Runs       []RunRecord    `json:"runs"`
}

// NewManifest returns an empty manifest for the named tool, stamped with
// the build's git revision and the hash of config.
func NewManifest(tool string, config map[string]any) *Manifest {
	return &Manifest{
		Schema:     ManifestSchema,
		Tool:       tool,
		GitRev:     GitRev(),
		Config:     config,
		ConfigHash: HashJSON(config),
	}
}

// Add appends a run record. Duplicate keys are verified rather than
// stored twice: the simulator is deterministic, so two runs of the same
// fully-hashed configuration must agree counter for counter — a mismatch
// means the Variant hash is missing a config dimension and is an error.
func (m *Manifest) Add(r RunRecord) error {
	key := r.Key()
	// Unless a field holds a '|', two keys are equal exactly when the
	// seven fields are.
	plain := strings.Count(key, "|") == 6
	for i := range m.Runs {
		if o := &m.Runs[i]; plain && !r.sameFields(o) || !plain && o.Key() != key {
			continue
		}
		if diffs := diffRun(&r, &m.Runs[i], 0); len(diffs) > 0 {
			return fmt.Errorf("metrics: duplicate run %s disagrees with earlier run (variant hash missing a config dimension?): %s",
				key, diffs[0])
		}
		return nil
	}
	m.Runs = append(m.Runs, r)
	return nil
}

// Sort orders runs by key so a manifest's JSON is independent of worker
// scheduling in the parallel runner.
func (m *Manifest) Sort() {
	keys := make([]string, len(m.Runs))
	for i := range m.Runs {
		keys[i] = m.Runs[i].Key()
	}
	sort.Sort(byKey{keys, m.Runs})
}

// byKey sorts runs by their precomputed keys. sort.Sort and sort.Slice
// run the same algorithm, so ties land where sort.Slice put them.
type byKey struct {
	keys []string
	runs []RunRecord
}

func (s byKey) Len() int           { return len(s.keys) }
func (s byKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s byKey) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.runs[i], s.runs[j] = s.runs[j], s.runs[i]
}

// Run returns the record with the given key, or nil.
func (m *Manifest) Run(key string) *RunRecord {
	for i := range m.Runs {
		if m.Runs[i].Key() == key {
			return &m.Runs[i]
		}
	}
	return nil
}

// index maps each key to its record, the first of several as in Run.
func (m *Manifest) index() map[string]*RunRecord {
	idx := make(map[string]*RunRecord, len(m.Runs))
	for i := range m.Runs {
		if k := m.Runs[i].Key(); idx[k] == nil {
			idx[k] = &m.Runs[i]
		}
	}
	return idx
}

// WriteFile marshals the manifest (sorted, indented) to path.
func (m *Manifest) WriteFile(path string) error {
	m.Sort()
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("metrics: marshal manifest: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile parses a manifest written by WriteFile. Bytes in WriteFile's
// canonical form decode in one pass (decode.go); anything else, hand
// edits included, decodes through encoding/json to the same value.
func ReadFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := parseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("metrics: parse manifest %s: %w", path, err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("metrics: manifest %s has schema %d, want %d: %w",
			path, m.Schema, ManifestSchema, ErrSchemaMismatch)
	}
	return m, nil
}

// DiffOptions tunes manifest comparison.
type DiffOptions struct {
	// FloatTol is the relative tolerance for Derived values (and an
	// absolute tolerance near zero). Zero means exact.
	FloatTol float64
	// RequireSameRuns also reports runs present in got but absent from
	// want. Off, Diff checks want ⊆ got — the mode the CI gate uses when
	// comparing a full -exp all manifest against the golden subset.
	RequireSameRuns bool
}

// Diff compares got against want and returns human-readable difference
// lines (empty when they match). Integer counters, cycles and error
// strings compare exactly; Derived values within opt.FloatTol; wall
// times, git revisions and config hashes are never compared.
func Diff(got, want *Manifest, opt DiffOptions) []string {
	var out []string
	gotIdx := got.index()
	for i := range want.Runs {
		w := &want.Runs[i]
		key := w.Key()
		g := gotIdx[key]
		if g == nil {
			out = append(out, fmt.Sprintf("run %s: missing", key))
			continue
		}
		for _, d := range diffRun(g, w, opt.FloatTol) {
			out = append(out, fmt.Sprintf("run %s: %s", key, d))
		}
	}
	if opt.RequireSameRuns {
		wantIdx := want.index()
		for i := range got.Runs {
			if key := got.Runs[i].Key(); wantIdx[key] == nil {
				out = append(out, fmt.Sprintf("run %s: unexpected (absent from golden)", key))
			}
		}
	}
	return out
}

// diffRun compares two records for the same key.
func diffRun(got, want *RunRecord, floatTol float64) []string {
	var out []string
	if got.Cycles != want.Cycles {
		out = append(out, fmt.Sprintf("cycles = %d, want %d", got.Cycles, want.Cycles))
	}
	if got.Err != want.Err {
		out = append(out, fmt.Sprintf("err = %q, want %q", got.Err, want.Err))
	}
	out = diffNamed(out, "counter", got.Counters, want.Counters, func(g, w int64) string {
		if g == w {
			return ""
		}
		return fmt.Sprintf(" = %d, want %d", g, w)
	})
	return diffNamed(out, "derived", got.Derived, want.Derived, func(g, w float64) string {
		if floatClose(g, w, floatTol) {
			return ""
		}
		return fmt.Sprintf(" = %g, want %g (tol %g)", g, w, floatTol)
	})
}

// diffNamed appends the lines for one name → value map: first each name
// of want that got lacks or whose values differ (differ returns the
// line's suffix, "" when they agree), then each name only got has, each
// block in name order. It compares by lookup and sorts only the names
// that produce a line, so agreeing maps cost no sort.
func diffNamed[V any](out []string, kind string, got, want map[string]V, differ func(g, w V) string) []string {
	var bad []string
	shared := 0
	for name, w := range want {
		g, ok := got[name]
		if ok {
			shared++
		}
		if !ok || differ(g, w) != "" {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	for _, name := range bad {
		if g, ok := got[name]; ok {
			out = append(out, fmt.Sprintf("%s %s%s", kind, name, differ(g, want[name])))
		} else {
			out = append(out, fmt.Sprintf("%s %s: missing", kind, name))
		}
	}
	if len(got) == shared {
		return out
	}
	var extra []string
	for name := range got {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		out = append(out, fmt.Sprintf("%s %s: unexpected (absent from golden — regenerate with -update?)", kind, name))
	}
	return out
}

func floatClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// HashJSON returns a short stable FNV-1a hash of v's JSON encoding; it
// keys configurations in manifests and golden files. Values must be
// JSON-marshalable (struct field order, and therefore the hash, is
// stable for a given type).
func HashJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Configurations are plain data; failure to marshal is a
		// programming error surfaced in tests, not a runtime condition.
		panic(fmt.Sprintf("metrics: hash: %v", err))
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// GitRev returns the VCS revision stamped into the running binary
// ("-dirty" suffixed when the worktree was modified), or "" when the
// build carries no VCS info (e.g. go test binaries).
func GitRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "-dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	return rev + modified
}

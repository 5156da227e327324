// Package report turns run manifests (the -stats-json output of
// cmd/experiments) into the paper-facing reproduction document:
// REPRODUCTION.md plus self-contained SVG figures. Everything the
// document states — per-benchmark and mean speedups normalized to the
// paper's baselines, normalized dynamic energy, issue-slot and
// spin-overhead breakdowns, and the Table I detection-quality rates — is
// *derived* from manifest counters, never hand-entered, and derived and
// laid out as tables by the same internal/exp functions that feed
// cmd/experiments' text output, so the
// published numbers cannot drift from the code that produced them or
// from stdout (a CI job regenerates the document from the checked-in
// manifest and fails on any diff).
//
// The pipeline is strictly offline: it consumes manifests, it never
// simulates. Rendering is deterministic — byte-identical output for the
// same manifests on every run, any -j, and every platform — which is
// what makes the drift gate a plain file diff.
package report

import (
	"errors"
	"fmt"
	"sort"

	"warpsched/internal/metrics"
)

// Load reads and joins one or more manifest files into a single Set.
// Manifests must agree on schema (enforced by metrics.ReadFile) and on
// their scale configuration hash: joining a -quick manifest with a
// full-scale one would silently mix incomparable runs, so it is a
// *JoinError instead.
func Load(paths ...string) (*Set, error) {
	if len(paths) == 0 {
		return nil, errors.New("report: no manifest paths given")
	}
	var ms []*metrics.Manifest
	for _, p := range paths {
		m, err := metrics.ReadFile(p)
		if err != nil {
			if errors.Is(err, metrics.ErrSchemaMismatch) {
				return nil, &JoinError{Path: p, Reason: ReasonSchema, Err: err}
			}
			return nil, err
		}
		ms = append(ms, m)
	}
	return Join(ms...)
}

// Join merges already-parsed manifests into a Set, verifying that they
// describe the same experiment scale (equal config hashes) and that
// records appearing in several manifests agree counter for counter.
func Join(ms ...*metrics.Manifest) (*Set, error) {
	if len(ms) == 0 {
		return nil, errors.New("report: no manifests given")
	}
	joined := &metrics.Manifest{
		Schema:     ms[0].Schema,
		Tool:       ms[0].Tool,
		ConfigHash: ms[0].ConfigHash,
		Config:     ms[0].Config,
	}
	for _, m := range ms {
		if m.ConfigHash != joined.ConfigHash {
			return nil, &JoinError{
				Reason: ReasonConfig,
				Err: fmt.Errorf("config hash %s (config %v) does not match %s (config %v) — manifests from different scales cannot be joined",
					m.ConfigHash, m.Config, joined.ConfigHash, joined.Config),
			}
		}
		for _, r := range m.Runs {
			if err := joined.Add(r); err != nil {
				return nil, &JoinError{Reason: ReasonConflict, Err: err}
			}
		}
	}
	joined.Sort()
	return &Set{m: joined, byExp: groupByExp(joined)}, nil
}

// JoinReason classifies why manifests could not be joined.
type JoinReason string

const (
	// ReasonSchema: a manifest was written under a different schema
	// version (regenerate it with the current tools).
	ReasonSchema JoinReason = "schema"
	// ReasonConfig: manifests come from different scale configurations
	// (e.g. -quick vs full) and their runs are not comparable.
	ReasonConfig JoinReason = "config"
	// ReasonConflict: two manifests contain the same fully-hashed run
	// with different counters — a determinism violation.
	ReasonConflict JoinReason = "conflict"
)

// JoinError is the structured failure of Load/Join.
type JoinError struct {
	// Path is the offending manifest file, when known.
	Path string
	// Reason classifies the failure.
	Reason JoinReason
	// Err carries the detail.
	Err error
}

// Error implements error.
func (e *JoinError) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("report: join %s: %s: %v", e.Path, e.Reason, e.Err)
	}
	return fmt.Sprintf("report: join: %s: %v", e.Reason, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *JoinError) Unwrap() error { return e.Err }

// Set is a joined, grouped collection of run records ready for
// derivation: records are grouped by the experiment that produced them
// and looked up by their human-readable coordinates.
type Set struct {
	m     *metrics.Manifest
	byExp map[string][]*metrics.RunRecord
}

// Manifest returns the joined manifest backing the set (e.g. to rebuild
// a Report from an already-loaded Set, or to write the join back out).
func (s *Set) Manifest() *metrics.Manifest { return s.m }

// ConfigHash returns the joined manifests' shared scale-configuration
// hash (stamped into the generated document header).
func (s *Set) ConfigHash() string { return s.m.ConfigHash }

// Config returns the shared invocation configuration (e.g. quick, sms).
func (s *Set) Config() map[string]any { return s.m.Config }

// Runs returns the records of one experiment, in manifest (key) order.
func (s *Set) Runs(exp string) []*metrics.RunRecord { return s.byExp[exp] }

// Experiments lists the experiment tags present, sorted.
func (s *Set) Experiments() []string {
	var out []string
	for e := range s.byExp {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// FindDDOS returns the unique record with the given coordinates, or a
// *MissingRunError if absent, or an error if several variants match
// (meaning the coordinates under-specify the run — e.g. the fig16 bucket
// sweep, whose points differ only in launch parameters). The detector
// descriptor ddos tells apart runs that differ only in detector
// parameters (the fig14 hashing comparison, the Table I sweep); an empty
// descriptor matches any.
func (s *Set) FindDDOS(exp, kernel, sched, bows, ddos string) (*metrics.RunRecord, error) {
	missing := &MissingRunError{Exp: exp, Kernel: kernel, Sched: sched, BOWS: bows, DDOS: ddos}
	var found *metrics.RunRecord
	for _, r := range s.byExp[exp] {
		if r.Kernel != kernel || r.Sched != sched || r.BOWS != bows || (ddos != "" && r.DDOS != ddos) {
			continue
		}
		if found != nil {
			return nil, fmt.Errorf("report: %s is ambiguous (variants %s and %s)",
				missing.coord(), found.Variant, r.Variant)
		}
		found = r
	}
	if found == nil {
		return nil, missing
	}
	return found, nil
}

// MissingRunError reports a run the report needed but the manifests do
// not contain (e.g. a sweep that was interrupted before the BOWS variant
// of a kernel ran).
type MissingRunError struct {
	// Exp, Kernel, Sched and BOWS are the missing run's coordinates.
	Exp, Kernel, Sched, BOWS string
	// DDOS is the detector descriptor, when the lookup needed one.
	DDOS string
}

// Error implements error.
func (e *MissingRunError) Error() string {
	return fmt.Sprintf("report: manifest has no run %s (sweep incomplete or wrong -exp selection?)", e.coord())
}

func (e *MissingRunError) coord() string {
	coord := fmt.Sprintf("%s/%s/%s/%s", e.Exp, e.Kernel, e.Sched, e.BOWS)
	if e.DDOS != "" {
		coord += "/" + e.DDOS
	}
	return coord
}

func groupByExp(m *metrics.Manifest) map[string][]*metrics.RunRecord {
	out := map[string][]*metrics.RunRecord{}
	for i := range m.Runs {
		r := &m.Runs[i]
		out[r.Exp] = append(out[r.Exp], r)
	}
	return out
}

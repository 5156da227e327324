package report

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Files renders the whole report in memory: the Markdown document plus
// every SVG figure, keyed by the absolute path each would be written to.
// Figure references inside the document are relative to the document's
// directory, so the rendered bytes depend only on the manifests and the
// mdPath→svgDir relationship — not on where the tree is checked out.
func (r *Report) Files(mdPath, svgDir string) map[string][]byte {
	out := map[string][]byte{mdPath: r.markdown(relFig(mdPath, svgDir))}
	for name, svg := range r.figures() {
		out[filepath.Join(svgDir, name)] = svg
	}
	return out
}

// Write renders the report: the Markdown document at mdPath and the SVG
// figures under svgDir. It returns the sorted list of paths written.
func (r *Report) Write(mdPath, svgDir string) ([]string, error) {
	files := r.Files(mdPath, svgDir)
	var paths []string
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(p, files[p], 0o644); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// Check re-renders the report and compares it byte for byte against the
// files on disk, returning a *DriftError naming every stale or missing
// path. It is the docs-drift gate run by scripts/check.sh and CI.
func (r *Report) Check(mdPath, svgDir string) error {
	files := r.Files(mdPath, svgDir)
	var paths []string
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var drift []string
	for _, p := range paths {
		got, err := os.ReadFile(p)
		if err != nil {
			drift = append(drift, p+" (missing)")
			continue
		}
		if !bytes.Equal(got, files[p]) {
			drift = append(drift, p)
		}
	}
	if len(drift) > 0 {
		return &DriftError{Paths: drift}
	}
	return nil
}

// DriftError reports generated files that no longer match what the
// manifest derives — REPRODUCTION.md or a figure was edited by hand, or
// the derivation changed without regenerating.
type DriftError struct {
	// Paths lists the stale or missing files.
	Paths []string
}

// Error implements error.
func (e *DriftError) Error() string {
	return fmt.Sprintf("report: generated files drifted from the manifest (regenerate with cmd/warpreport): %v", e.Paths)
}

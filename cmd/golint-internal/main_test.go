package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// lint parses src as the file name and returns checkFile's findings.
func lint(t *testing.T, name, src string, storePkg bool) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return checkFile(fset, f, storePkg)
}

// TestRules gives every rule a snippet it must flag and a snippet it must
// pass.
func TestRules(t *testing.T) {
	cases := []struct {
		name     string
		file     string
		storePkg bool
		src      string
		want     string // a substring of the one finding; empty means none
	}{
		{"math/rand import", "a.go", false,
			`package p; import "math/rand"; var _ = rand.Int`, "import math/rand forbidden"},
		{"math/rand/v2 import", "a.go", false,
			`package p; import "math/rand/v2"; var _ = rand.Int`, "import math/rand/v2 forbidden"},
		{"seeded hash import", "a.go", false,
			`package p; import "hash/fnv"; var _ = fnv.New64a`, ""},

		{"time.Now", "a.go", false,
			`package p; import "time"; func f() { _ = time.Now() }`, "time.Now forbidden"},
		{"aliased time.Now", "a.go", false,
			`package p; import clock "time"; func f() { _ = clock.Now() }`, "time.Now forbidden"},
		{"local named time", "a.go", false,
			`package p; import "time"; var _ = time.Second
			func f() { time := struct{ Now int }{}; _ = time.Now }`, ""},
		{"time.Since", "a.go", false,
			`package p; import "time"; func f(t time.Time) { _ = time.Since(t) }`, ""},

		{"os.Rename in the store", "journal.go", true,
			`package p; import "os"; func f() { _ = os.Rename("a", "b") }`, "os.Rename forbidden outside atomic.go"},
		{"aliased os.WriteFile in the store", "journal.go", true,
			`package p; import sys "os"; func f() { _ = sys.WriteFile("a", nil, 0) }`, "os.WriteFile forbidden outside atomic.go"},
		{"os.Rename in atomic.go", "atomic.go", true,
			`package p; import "os"; func f() { _ = os.Rename("a", "b") }`, ""},
		{"os.Rename outside the store", "journal.go", false,
			`package p; import "os"; func f() { _ = os.Rename("a", "b") }`, ""},

		{"func-typed package variable", "a.go", false,
			`package p; var Hook func(slot int, pc int32)`, "package-level func variable Hook forbidden"},
		{"func-literal package variable", "a.go", false,
			`package p; var a, b = 1, func() {}`, "package-level func variable b forbidden"},
		{"func-typed local variable", "a.go", false,
			`package p; func f() { var hook func(int); _ = hook }`, ""},
		{"package variable computed by a func literal", "a.go", false,
			`package p; var table = func() map[string]int { return nil }()`, ""},
		{"func-typed struct field", "a.go", false,
			`package p; type Options struct{ Hook func(int) }`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := lint(t, tc.file, tc.src, tc.storePkg)
			switch {
			case tc.want == "" && len(got) != 0:
				t.Errorf("flagged clean code: %v", got)
			case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], tc.want)):
				t.Errorf("findings %v, want one containing %q", got, tc.want)
			}
		})
	}
}

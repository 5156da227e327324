// Command golint-internal enforces the determinism contract of the
// simulation core at the Go-source level: packages it is pointed at may
// not import math/rand (any randomness must come from seeded injectors
// like mem.FaultConfig), may not call time.Now (wall-clock reads make
// cycle-exact replay and the content-addressed result cache unsound —
// simulated time is the only clock) and may not declare package-level
// func variables (a settable hook is state shared by every engine a -j
// sweep runs at once; behaviour belongs in sim.Options, which each engine
// owns). In internal/store it additionally
// enforces the durability contract: only atomic.go may call os.Rename
// or os.WriteFile — every other write must go through the FS interface
// and its temp-file + fsync + rename protocol, or crash-safety and
// fault injection silently stop covering it. It is a plain-parser lint
// in the style of cmd/doccheck — no type checking, no external
// dependencies — wired into scripts/check.sh and the CI lint job (from the
// repo root, no arguments: defaultDirs):
//
//	go run ./cmd/golint-internal [<package dir>...]
//
// Test files are exempt: harnesses legitimately time out, shuffle and
// corrupt files in place. Exits 1 listing each violation as
// file:line: message.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
)

// defaultDirs is what the gate lints: the simulation core and the store.
var defaultDirs = []string{"./internal/sim", "./internal/simt", "./internal/mem",
	"./internal/store", "./internal/sched", "./internal/core"}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	var problems []string
	for _, dir := range dirs {
		p, err := checkDir(strings.TrimSuffix(dir, "/..."))
		if err != nil {
			fmt.Fprintf(os.Stderr, "golint-internal: %v\n", err)
			os.Exit(2)
		}
		problems = append(problems, p...)
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Fprintf(os.Stderr, "golint-internal: %d determinism violations\n", len(problems))
		os.Exit(1)
	}
}

func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	storePkg := strings.HasSuffix(strings.TrimSuffix(strings.ReplaceAll(dir, "\\", "/"), "/"), "internal/store")
	var out []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			out = append(out, checkFile(fset, f, storePkg)...)
		}
	}
	return out, nil
}

// checkFile flags math/rand imports, package-level variables declared
// with a func type or initialised with a func literal, and calls through
// any local name of the time package whose selector is Now. Import aliases
// are honoured, so `import t "time"; t.Now()` is caught and a local
// variable named `time` is not. A variable of a named func type is not
// seen: the lint parses, it does not type-check. In internal/store it also
// flags os.Rename and os.WriteFile calls outside atomic.go, which owns the
// write protocol.
func checkFile(fset *token.FileSet, f *ast.File, storePkg bool) []string {
	var out []string
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			_, funcType := vs.Type.(*ast.FuncType)
			for i, name := range vs.Names {
				funcLit := false
				if i < len(vs.Values) {
					_, funcLit = vs.Values[i].(*ast.FuncLit)
				}
				if (funcType || funcLit) && name.Name != "_" {
					pos := fset.Position(name.Pos())
					out = append(out, fmt.Sprintf("%s:%d: package-level func variable %s forbidden: a hook shared by concurrent engines belongs in sim.Options",
						pos.Filename, pos.Line, name.Name))
				}
			}
		}
	}
	timeNames := map[string]bool{}
	osNames := map[string]bool{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		switch path {
		case "math/rand", "math/rand/v2":
			pos := fset.Position(imp.Pos())
			out = append(out, fmt.Sprintf("%s:%d: import %s forbidden: use a seeded injector, not ambient randomness",
				pos.Filename, pos.Line, path))
		case "time":
			name := "time"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name != "_" && name != "." {
				timeNames[name] = true
			}
		case "os":
			name := "os"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name != "_" && name != "." {
				osNames[name] = true
			}
		}
	}
	// Bare file writes bypass the store's temp-file + fsync + rename
	// protocol (and its FaultFS coverage); only atomic.go implements it.
	checkOS := storePkg && len(osNames) > 0 &&
		!strings.HasSuffix(fset.Position(f.Pos()).Filename, "atomic.go")
	if len(timeNames) == 0 && !checkOS {
		return out
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		// Obj == nil distinguishes the package name from a shadowing
		// local declaration, which the parser resolves file-locally.
		if !ok || id.Obj != nil {
			return true
		}
		pos := fset.Position(sel.Pos())
		switch {
		case sel.Sel.Name == "Now" && timeNames[id.Name]:
			out = append(out, fmt.Sprintf("%s:%d: time.Now forbidden: simulated cycles are the only clock",
				pos.Filename, pos.Line))
		case checkOS && osNames[id.Name] &&
			(sel.Sel.Name == "Rename" || sel.Sel.Name == "WriteFile"):
			out = append(out, fmt.Sprintf("%s:%d: os.%s forbidden outside atomic.go: use the FS write protocol",
				pos.Filename, pos.Line, sel.Sel.Name))
		}
		return true
	})
	return out
}

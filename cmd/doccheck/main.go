// Command doccheck verifies godoc coverage: every exported top-level
// symbol (type, function, method, var, const) in the packages it is
// pointed at must carry a doc comment. It is a plain-parser lint — no
// type checking, no external dependencies — wired into scripts/check.sh
// and CI (from the repo root, no arguments: defaultDirs) so exported API
// cannot land undocumented.
//
//	go run ./cmd/doccheck [<package dir>...]
//
// A const/var block's doc comment covers every spec in the block; an
// individual spec comment covers just that spec. Test files and
// generated files are skipped. Exits 1 listing each undocumented symbol
// as file:line: name.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultDirs is what the gate checks: the packages with an API surface.
var defaultDirs = []string{"./internal/report", "./internal/exp", "./internal/metrics",
	"./internal/server", "./internal/store", "./internal/sim", "./internal/simt",
	"./internal/sched", "./internal/core", "./internal/mem", "."}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	var problems []string
	for _, dir := range dirs {
		p, err := checkDir(strings.TrimSuffix(dir, "/..."))
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		problems = append(problems, p...)
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented exported symbols\n", len(problems))
		os.Exit(1)
	}
}

func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s is undocumented", filepath.ToSlash(p.Filename), p.Line, name))
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil && receiverExported(d) {
						report(d.Pos(), funcName(d))
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return out, nil
}

// receiverExported reports whether a method's receiver type is itself
// exported (methods on unexported types are internal API).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	return "method " + d.Name.Name
}

func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string)) {
	blockDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "type "+s.Name.Name)
			}
		case *ast.ValueSpec:
			if blockDoc || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					report(n.Pos(), n.Name)
				}
			}
		}
	}
}

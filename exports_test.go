package safepriv_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestExportsHaveCallers holds the served layers to their callers:
// every package-level exported identifier and every exported method
// that a non-test file of the package declares must be referenced by a
// file outside the package's directory — another package, a command, an
// example, the benchmark, or another package's tests. The package's own
// tests do not count. A package-level name counts as referenced by a
// selector on the package's import name; a method by a selector of its
// name in any outside file, since telling receivers apart would take a
// type checker; a type also by a reference to a function or method
// that returns it, as a constructor does. Each allowlisted name says
// why it stays without a caller, and a stale entry (one that has a
// caller, or names nothing) fails too.
func TestExportsHaveCallers(t *testing.T) {
	tests := []struct {
		dir   string
		allow map[string]string // exported name → why it stays uncalled
	}{
		{"internal/stmkv", map[string]string{
			"WithTransactionalScan": "the §8 contrast, a fence-free Scan (ROADMAP item 8)",
			"Option":                "the type of WithTransactionalScan, New's one option (ROADMAP item 8)",
		}},
		{"internal/stmds", nil},
		{"internal/stmalloc", nil},
		{"internal/region", nil},
		{"internal/kvserve", nil},
	}

	allowed := 0
	for _, tt := range tests {
		allowed += len(tt.allow)
	}
	if allowed > 10 {
		t.Errorf("%d allowlist entries, want at most 10", allowed)
	}

	fset := token.NewFileSet()
	type goFile struct {
		dir  string
		test bool
		ast  *ast.File
	}
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{filepath.Dir(path), strings.HasSuffix(path, "_test.go"), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, tt := range tests {
		t.Run(filepath.Base(tt.dir), func(t *testing.T) {
			importPath := "safepriv/" + tt.dir
			// Names referenced from outside the directory: pkgRefs through
			// the package's import name, selRefs as any selector.
			pkgRefs, selRefs := map[string]bool{}, map[string]bool{}
			for _, f := range files {
				if f.dir == filepath.FromSlash(tt.dir) {
					continue
				}
				local := ""
				for _, imp := range f.ast.Imports {
					if p, _ := strconv.Unquote(imp.Path.Value); p == importPath {
						local = filepath.Base(p)
						if imp.Name != nil {
							local = imp.Name.Name
						}
					}
				}
				ast.Inspect(f.ast, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						selRefs[sel.Sel.Name] = true
						if x, ok := sel.X.(*ast.Ident); ok && local != "" && x.Name == local {
							pkgRefs[sel.Sel.Name] = true
						}
					}
					return true
				})
			}

			called := func(fn *ast.FuncDecl) bool {
				if fn.Recv != nil {
					return selRefs[fn.Name.Name]
				}
				return pkgRefs[fn.Name.Name]
			}
			var pkgFiles []*ast.File
			for _, f := range files {
				if f.dir == filepath.FromSlash(tt.dir) && !f.test {
					pkgFiles = append(pkgFiles, f.ast)
				}
			}
			// A type returned by a referenced function or method is
			// referenced through it.
			for _, f := range pkgFiles {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Type.Results == nil || !called(fn) {
						continue
					}
					for _, res := range fn.Type.Results.List {
						typ := res.Type
						if star, ok := typ.(*ast.StarExpr); ok {
							typ = star.X
						}
						if id, ok := typ.(*ast.Ident); ok {
							pkgRefs[id.Name] = true
						}
					}
				}
			}

			declared := map[string]bool{}
			check := func(name string, referenced bool, pos token.Pos) {
				if !ast.IsExported(name) {
					return
				}
				declared[name] = true
				if _, ok := tt.allow[name]; !referenced && !ok {
					t.Errorf("%s: %s has no caller outside %s", fset.Position(pos), name, tt.dir)
				}
				if referenced && tt.allow[name] != "" {
					t.Errorf("allowlisted %s has a caller outside %s: drop its entry", name, tt.dir)
				}
			}
			for _, f := range pkgFiles {
				for _, decl := range f.Decls {
					switch decl := decl.(type) {
					case *ast.FuncDecl:
						check(decl.Name.Name, called(decl), decl.Pos())
					case *ast.GenDecl:
						for _, spec := range decl.Specs {
							switch spec := spec.(type) {
							case *ast.TypeSpec:
								check(spec.Name.Name, pkgRefs[spec.Name.Name], spec.Pos())
							case *ast.ValueSpec:
								for _, n := range spec.Names {
									check(n.Name, pkgRefs[n.Name], n.Pos())
								}
							}
						}
					}
				}
			}
			for name, why := range tt.allow {
				if why == "" {
					t.Errorf("allowlisted %s gives no reason", name)
				}
				if !declared[name] {
					t.Errorf("allowlisted %s is not an exported name of %s", name, tt.dir)
				}
			}
		})
	}
}

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

// TestExportsHaveCallers holds every internal package to its callers:
// every package-level exported identifier and every exported method
// that a non-test file of the package declares must be referenced by a
// file outside the package's directory — another package, a command, an
// example, the benchmark, or another package's tests. The package's own
// tests do not count. A package-level name counts as referenced by a
// selector on the package's import name; a method by a selector of its
// name in any outside file, since telling receivers apart would take a
// type checker. A type also counts as referenced when a referenced
// declaration names it, since a caller of that declaration must name
// or build the type: a referenced function's or method's parameters and
// results (a constructor, an option that takes a policy) and a
// referenced struct type's exported fields. Each allowlisted name says
// why it stays without a caller, and a stale entry (one that has a
// caller, or names nothing) fails too. Every directory under internal/
// that holds a non-test Go file needs a row, or a deferral that gives
// its reason, and a row whose directory holds none fails.
func TestExportsHaveCallers(t *testing.T) {
	tests := []struct {
		dir   string
		allow map[string]string // exported name → why it stays uncalled
	}{
		{"internal/stmkv", map[string]string{
			"WithTransactionalScan": "the §8 contrast, a fence-free Scan (ROADMAP item 8)",
		}},
		{"internal/stmds", nil},
		{"internal/stmalloc", nil},
		{"internal/region", nil},
		{"internal/kvserve", nil},
		{"internal/atomictm", nil},
		{"internal/baseline", nil},
		{"internal/core", nil},
		{"internal/core/coretest", nil},
		{"internal/engine", nil},
		{"internal/litmus", nil},
		{"internal/mgc", nil},
		{"internal/model", nil},
		{"internal/norec", nil},
		{"internal/oaset", nil},
		{"internal/progen", nil},
		{"internal/rcu", nil},
		{"internal/record", nil},
		{"internal/spec", nil},
		{"internal/stripe", nil},
		{"internal/telemetry", nil},
		{"internal/tl2", nil},
		{"internal/txexec", nil},
		{"internal/vclock", nil},
		{"internal/vlock", nil},
		{"internal/workload", nil},
		{"internal/wtstm", nil},
	}
	deferred := map[string]string{
		"internal/hb":      "ROADMAP item 14 rewrites the happens-before checker on vector clocks; its row lands with that rewrite",
		"internal/opacity": "ROADMAP item 14 moves the bit-matrix checker to a test oracle; its row lands with that rewrite",
	}

	allowed := 0
	for _, tt := range tests {
		allowed += len(tt.allow)
	}
	if allowed > 10 {
		t.Errorf("%d allowlist entries, want at most 10", allowed)
	}

	fset, files := parseTree(t)

	// Every package under internal/ has a row or a deferral, and every
	// row names a package.
	pkgDirs := map[string]bool{}
	for _, f := range files {
		if !f.test && strings.HasPrefix(filepath.ToSlash(f.dir), "internal/") {
			pkgDirs[filepath.ToSlash(f.dir)] = true
		}
	}
	rows := map[string]bool{}
	for _, tt := range tests {
		rows[tt.dir] = true
		if !pkgDirs[tt.dir] {
			t.Errorf("row %s: no non-test Go file there", tt.dir)
		}
	}
	for dir, why := range deferred {
		if why == "" {
			t.Errorf("deferred %s gives no reason", dir)
		}
		if rows[dir] {
			t.Errorf("deferred %s also has a row: drop its deferral", dir)
		}
		if !pkgDirs[dir] {
			t.Errorf("deferred %s: no non-test Go file there", dir)
		}
	}
	for dir := range pkgDirs {
		if _, ok := deferred[dir]; !rows[dir] && !ok {
			t.Errorf("%s has no row", dir)
		}
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
				if !fn.Name.IsExported() {
					return false
				}
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
			// A type named by a referenced declaration is referenced
			// through it (see the rule above). A field can name a type
			// whose own fields name another, so run to a fixed point.
			markTypes := func(fields *ast.FieldList, exportedOnly bool) (grew bool) {
				if fields == nil {
					return false
				}
				for _, fld := range fields.List {
					if exportedOnly && !anyExported(fld.Names) {
						continue
					}
					ast.Inspect(fld.Type, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.SelectorExpr:
							return false // another package's type
						case *ast.Ident:
							if !pkgRefs[n.Name] {
								pkgRefs[n.Name], grew = true, true
							}
						}
						return true
					})
				}
				return grew
			}
			for grew := true; grew; {
				grew = false
				for _, f := range pkgFiles {
					for _, decl := range f.Decls {
						switch decl := decl.(type) {
						case *ast.FuncDecl:
							if called(decl) {
								grew = markTypes(decl.Type.Params, false) || grew
								grew = markTypes(decl.Type.Results, false) || grew
							}
						case *ast.GenDecl:
							for _, spec := range decl.Specs {
								ts, ok := spec.(*ast.TypeSpec)
								if !ok || !pkgRefs[ts.Name.Name] {
									continue
								}
								if st, ok := ts.Type.(*ast.StructType); ok {
									grew = markTypes(st.Fields, true) || grew
								}
							}
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

// anyExported reports whether a field list entry declares an exported
// name; an embedded field (no names) counts as exported.
func anyExported(names []*ast.Ident) bool {
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if n.IsExported() {
			return true
		}
	}
	return false
}

// goFile is one parsed Go file of the repository.
type goFile struct {
	dir  string
	test bool
	ast  *ast.File
}

// parseTree parses every Go file of the repository outside dot
// directories.
func parseTree(t *testing.T) (*token.FileSet, []goFile) {
	t.Helper()
	fset := token.NewFileSet()
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
	return fset, files
}

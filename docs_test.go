package safepriv_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeNamesExist holds README.md to the code it cites: every
// `pkg.Name` in a code span or code block, where pkg is the name of a
// package under internal/, must be a package-level exported name that a
// non-test file of that package declares. Only the first selector is
// checked (`stmkv.Store.Scan` checks Store).
func TestReadmeNamesExist(t *testing.T) {
	decls := map[string]map[string]bool{} // package name → declared names
	_, files := parseTree(t)
	for _, f := range files {
		if f.test || !strings.HasPrefix(filepath.ToSlash(f.dir), "internal/") {
			continue
		}
		names := decls[f.ast.Name.Name]
		if names == nil {
			names = map[string]bool{}
			decls[f.ast.Name.Name] = names
		}
		for _, decl := range f.ast.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					names[decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	code := regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	ref := regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	checked := 0
	for _, span := range code.FindAll(readme, -1) {
		for _, m := range ref.FindAllSubmatch(span, -1) {
			pkg, name := string(m[1]), string(m[2])
			names, ok := decls[pkg]
			if !ok {
				continue // not an internal package (http.Handler, a variable)
			}
			checked++
			if !names[name] {
				t.Errorf("README.md cites %s.%s, which package %s does not export", pkg, name, pkg)
			}
		}
	}
	if checked == 0 {
		t.Error("README.md cites no internal name: is the pattern stale?")
	}
}

// TestCIRunPatternsMatchTests keeps the CI workflow's -run patterns
// live: every alternative of a -run pattern in .github/workflows/ci.yml
// must match a Test or Fuzz function declared somewhere in the tree, so
// that renaming or deleting a test cannot silently empty a CI step.
// A pattern that names no test (`^$`, a benchmark-only run) is skipped.
func TestCIRunPatternsMatchTests(t *testing.T) {
	var tests []string
	_, files := parseTree(t)
	for _, f := range files {
		if !f.test {
			continue
		}
		for _, decl := range f.ast.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				tests = append(tests, fn.Name.Name)
			}
		}
	}

	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	run := regexp.MustCompile(`-run[= ](?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)
	checked := 0
	for _, m := range run.FindAllSubmatch(ci, -1) {
		pattern := string(m[1]) + string(m[2]) + string(m[3])
		top, _, _ := strings.Cut(pattern, "/") // subtest levels are not checked
		for _, alt := range strings.Split(top, "|") {
			if strings.Trim(alt, "^$") == "" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml -run %q: alternative %q: %v", pattern, alt, err)
				continue
			}
			checked++
			found := false
			for _, name := range tests {
				if re.MatchString(name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("ci.yml -run %q: alternative %q matches no Test or Fuzz function", pattern, alt)
			}
		}
	}
	if checked == 0 {
		t.Error("ci.yml has no -run pattern: is the pattern stale?")
	}
}

package pkgstream_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestRootSurfaceIsUsed keeps the root package down to what its users
// need. An exported root identifier must either be named as pkgstream.X
// by a non-test file under cmd/ or examples/ (or by example_test.go), or
// appear, directly or transitively, in the declaration of one that is.
// Everything else belongs in its internal package only.
func TestRootSurfaceIsUsed(t *testing.T) {
	fset := token.NewFileSet()

	// Exported top-level declarations of the root package.
	decls := map[string][]ast.Node{}
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range roots {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					decls[d.Name.Name] = append(decls[d.Name.Name], d.Type)
					if d.Body != nil {
						decls[d.Name.Name] = append(decls[d.Name.Name], d.Body)
					}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[s.Name.Name] = append(decls[s.Name.Name], s.Type)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								if s.Type != nil {
									decls[n.Name] = append(decls[n.Name], s.Type)
								}
								for _, v := range s.Values {
									decls[n.Name] = append(decls[n.Name], v)
								}
							}
						}
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported root declarations found")
	}

	// Identifiers the commands, the examples and example_test.go name.
	users := []string{"example_test.go"}
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				users = append(users, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	kept := map[string]bool{}
	var queue []string
	keep := func(name string) {
		if _, ok := decls[name]; ok && !kept[name] {
			kept[name] = true
			queue = append(queue, name)
		}
	}
	for _, path := range users {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != "pkgstream" {
				continue
			}
			local := "pkgstream"
			if imp.Name != nil {
				local = imp.Name.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
						keep(sel.Sel.Name)
					}
				}
				return true
			})
		}
	}

	// Whatever a kept declaration mentions is kept too.
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		for _, n := range decls[name] {
			rootIdents(n, keep)
		}
	}

	var unused []string
	for name := range decls {
		if !kept[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("pkgstream.%s is named by no command or example; use its internal package instead", name)
	}
}

// rootIdents calls f with every unqualified identifier in n: the names
// a root declaration takes from its own package. The selected half of
// a qualified name (engine.Tuple's Tuple) is skipped.
func rootIdents(n ast.Node, f func(string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			rootIdents(x.X, f)
			return false
		case *ast.Ident:
			f(x.Name)
		}
		return true
	})
}

package pimmine_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeExportsAreCalled keeps pimmine.go to the names its callers
// use. An exported name stays only if
//   - a non-test file under cmd/ or examples/ references it,
//   - it appears in the signature of a function that stays, or
//   - it shares a const block with a name that stays.
func TestFacadeExportsAreCalled(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "pimmine.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	sigs := map[string][]string{} // function → facade names in its signature
	var constBlocks [][]string
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil || !d.Name.IsExported() {
				continue
			}
			declared[d.Name.Name] = true
			ast.Inspect(d.Type, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					return false // a qualified internal name, not the facade's
				case *ast.Ident:
					sigs[d.Name.Name] = append(sigs[d.Name.Name], n.Name)
				}
				return true
			})
		case *ast.GenDecl:
			var block []string
			for _, spec := range d.Specs {
				var names []*ast.Ident
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = []*ast.Ident{s.Name}
				case *ast.ValueSpec:
					names = s.Names
				}
				for _, id := range names {
					if id.IsExported() {
						declared[id.Name] = true
						block = append(block, id.Name)
					}
				}
			}
			if d.Tok == token.CONST {
				constBlocks = append(constBlocks, block)
			}
		}
	}

	kept := map[string]bool{}
	for name := range callerRefs(t, fset) {
		if declared[name] {
			kept[name] = true
		}
	}
	// Only callers keep functions; signatures and const blocks add types
	// and constants, which keep nothing further, so one pass of each rule
	// is the whole closure.
	for fn, names := range sigs {
		if kept[fn] {
			for _, name := range names {
				if declared[name] {
					kept[name] = true
				}
			}
		}
	}
	for _, block := range constBlocks {
		if slices.ContainsFunc(block, func(name string) bool { return kept[name] }) {
			for _, name := range block {
				kept[name] = true
			}
		}
	}

	var uncalled []string
	for name := range declared {
		if !kept[name] {
			uncalled = append(uncalled, name)
		}
	}
	slices.Sort(uncalled)
	if len(uncalled) > 0 {
		t.Errorf("pimmine.go exports %d of %d names that no cmd/ or examples/ caller needs: %s",
			len(uncalled), len(declared), strings.Join(uncalled, ", "))
	}
}

// callerRefs returns every name a non-test file under cmd/ or examples/
// selects from its import of the root package.
func callerRefs(t *testing.T, fset *token.FileSet) map[string]bool {
	t.Helper()
	refs := map[string]bool{}
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			local := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "pimmine" {
					local = "pimmine"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
						refs[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(refs) == 0 {
		t.Fatal("no cmd/ or examples/ file references the root package")
	}
	return refs
}

package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parseNonTestFiles parses every non-test .go file of dir, whatever its build
// tags.
func parseNonTestFiles(t *testing.T, fset *token.FileSet, dir string, mode parser.Mode) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, mode)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	return files
}

// TestOneSpawnSite pins the one-scheduler rule: the engine's non-test files
// hold exactly one go statement, and it is inside runWorkers.
func TestOneSpawnSite(t *testing.T) {
	fset := token.NewFileSet()
	total, inRunWorkers := 0, 0
	for _, f := range parseNonTestFiles(t, fset, ".", 0) {
		ast.Inspect(f, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				total++
				t.Logf("go statement at %s", fset.Position(gs.Pos()))
			}
			return true
		})
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Name.Name != "runWorkers" {
				continue
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					inRunWorkers++
				}
				return true
			})
		}
	}
	if total != 1 || inRunWorkers != 1 {
		t.Fatalf("%d go statements in internal/engine, %d of them in runWorkers; want exactly one, in runWorkers", total, inRunWorkers)
	}
}

// TestNoBaselineImports pins the layering: the paper's baselines (B-tree,
// sorting, result cache, AutoMV) are for internal/bench's experiments and
// stay out of the engine, the cache, the server and the public package.
func TestNoBaselineImports(t *testing.T) {
	const module = "github.com/predcache/predcache/internal/"
	baselines := map[string]bool{
		module + "btree": true, module + "psort": true, module + "resultcache": true, module + "automv": true,
	}
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../core", "../server", "../.."} {
		for _, f := range parseNonTestFiles(t, fset, dir, parser.ImportsOnly) {
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); baselines[path] {
					t.Errorf("%s imports baseline package %s", fset.Position(imp.Pos()), path)
				}
			}
		}
	}
}

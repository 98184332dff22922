package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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

// spawnSites is every go statement in the module's non-test files, keyed by
// file and enclosing function, with what ends the goroutine: a join, a
// cancellation, or the end of its own work.
var spawnSites = []struct{ site, ends string }{
	{"benchmark/driver.go (*instance).serve", "Serve returns once tearDown calls Shutdown; tearDown receives serveErr"},
	{"benchmark/driver.go (*instance).runWindow", "joined by wg.Wait"},
	{"benchmark/host.go calibrationRound", "joined by wg.Wait"},
	{"benchmark/host.go startRSSSampler", "stop closes stopCh and waits on wg"},
	{"cmd/pcserver/main.go main", "Serve returns after Shutdown; main exits with the process"},
	// The engine's one scheduler: no other go statement in internal/engine.
	{"internal/engine/parallel.go runWorkers", "joined by wg.Wait; a worker panic is recovered into the query's error"},
	{"internal/obs/runtime.go StartRuntimeCollector", "Stop cancels the context and waits on done"},
	{"internal/server/server.go New", "the admin server; joined by lnWg.Wait in Shutdown"},
	{"internal/server/server.go (*Server).startSession", "joined by wg.Wait in Shutdown"},
	{"internal/server/server.go (*Server).Shutdown", "ends when wg.Wait returns; Shutdown or forceClose receives done"},
	{"internal/server/session.go (*session).run", "the reader; run closes the connection and receives readErr"},
	{"internal/server/session.go (*session).run", "drains lines until the reader closes it"},
}

// TestSpawnSites pins the module's goroutines: a go statement that is not in
// spawnSites fails until someone has reviewed how it ends and added it, and a
// removed one fails until its entry goes.
func TestSpawnSites(t *testing.T) {
	found := goStatements(t, nonTestDirs(t, moduleRoot))
	for _, s := range spawnSites {
		found[s.site]--
	}
	for site, n := range found {
		switch {
		case n > 0:
			t.Errorf("%s: %d go statement(s) not in spawnSites; add each with what joins or cancels it", site, n)
		case n < 0:
			t.Errorf("%s: %d spawnSites entr(ies) without a go statement; remove them", site, -n)
		}
	}
}

// TestOneSpawnSite pins the one-scheduler rule on its own, so that widening
// spawnSites cannot relax it: the engine's non-test files hold exactly one go
// statement, and it is inside runWorkers.
func TestOneSpawnSite(t *testing.T) {
	const want = "internal/engine/parallel.go runWorkers"
	found := goStatements(t, []string{filepath.Join(moduleRoot, "internal", "engine")})
	for site, n := range found {
		if site != want || n != 1 {
			t.Errorf("%s: %d go statement(s); want exactly one in internal/engine, in runWorkers", site, n)
		}
	}
	if found[want] != 1 {
		t.Errorf("no go statement in runWorkers")
	}
}

// moduleRoot is the module's root directory, relative to this package.
const moduleRoot = "../.."

// goStatements counts the go statements in the non-test files of dirs, keyed
// by file (relative to moduleRoot) and enclosing function.
func goStatements(t *testing.T, dirs []string) map[string]int {
	t.Helper()
	fset := token.NewFileSet()
	found := map[string]int{}
	for _, dir := range dirs {
		for _, f := range parseNonTestFiles(t, fset, dir, 0) {
			rel, err := filepath.Rel(moduleRoot, fset.Position(f.Pos()).Filename)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				ast.Inspect(d, func(n ast.Node) bool {
					if _, ok := n.(*ast.GoStmt); ok {
						found[filepath.ToSlash(rel)+" "+declName(d)]++
					}
					return true
				})
			}
		}
	}
	return found
}

// nonTestDirs lists the directories under root holding non-test .go files,
// skipping testdata and hidden directories.
func nonTestDirs(t *testing.T, root string) []string {
	t.Helper()
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if dir := filepath.Dir(path); strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") && !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// declName renders a declaration as the function or method it declares:
// f, T.m or (*T).m.
func declName(d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return "package-level"
	}
	if fd.Recv == nil {
		return fd.Name.Name
	}
	switch typ := fd.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		return "(*" + types.ExprString(typ.X) + ")." + fd.Name.Name
	default:
		return types.ExprString(typ) + "." + fd.Name.Name
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

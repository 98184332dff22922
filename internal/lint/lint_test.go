package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runFixture loads testdata/src/<name> and runs a single analyzer over it.
// It returns the findings plus the set of line numbers carrying a `// want`
// marker in the fixture source.
func runFixture(t *testing.T, name string, a Analyzer) (findings []Finding, wants map[int]bool) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if pkg == nil {
		t.Fatalf("no package loaded from %s", dir)
	}
	prog := NewProgram(loader.Fset(), []*Package{pkg})
	findings = prog.Run([]Analyzer{a})

	wants = make(map[int]bool)
	src, err := os.ReadFile(filepath.Join(dir, name+".go"))
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "// want") {
			wants[i+1] = true
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want markers", name)
	}
	return findings, wants
}

// checkFixture asserts the analyzer reported on exactly the `// want` lines:
// every marked line has at least one finding, and no finding lands on an
// unmarked line.
func checkFixture(t *testing.T, name string, a Analyzer) {
	t.Helper()
	findings, wants := runFixture(t, name, a)
	got := make(map[int]bool)
	for _, f := range findings {
		if f.Analyzer != a.Name() {
			t.Errorf("finding from wrong analyzer %q: %s", f.Analyzer, f)
		}
		got[f.Pos.Line] = true
		if !wants[f.Pos.Line] {
			t.Errorf("unexpected finding (no // want on line %d): %s", f.Pos.Line, f)
		}
	}
	for line := range wants {
		if !got[line] {
			t.Errorf("%s: line %d marked // want but analyzer %s reported nothing", name, line, a.Name())
		}
	}
}

func TestErrWrapFixture(t *testing.T)   { checkFixture(t, "errwrap", ErrWrap{}) }
func TestBufAliasFixture(t *testing.T)  { checkFixture(t, "bufalias", BufAlias{}) }
func TestLockOrderFixture(t *testing.T) { checkFixture(t, "lockorder", LockOrder{}) }

// TestLockCheckFixture runs the fixture of the former lockcheck analyzer,
// unchanged, through lockorder, which now does its guard and copy checks.
func TestLockCheckFixture(t *testing.T) { checkFixture(t, "lockcheck", LockOrder{}) }

// TestRepoClean is the lint gate: it runs the full suite over the real
// module under both build-tag configurations (default and pcdebug, whose
// assertion files only exist under the tag) and requires zero findings.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; skipped with -short")
	}
	for _, tag := range []string{"", "pcdebug"} {
		t.Run("tags="+tag, func(t *testing.T) {
			loader, err := NewLoader(".")
			if err != nil {
				t.Fatalf("NewLoader: %v", err)
			}
			if tag != "" {
				loader.BuildTags = []string{tag}
			}
			pkgs, err := loader.LoadAll()
			if err != nil {
				t.Fatalf("LoadAll: %v", err)
			}
			if len(pkgs) < 5 {
				t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
			}
			for _, f := range NewProgram(loader.Fset(), pkgs).Run(Analyzers()) {
				t.Errorf("repo not lint-clean: %s", f)
			}
		})
	}
}

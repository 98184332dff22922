// Package lint implements pclint, a project-specific static-analysis suite
// built exclusively on the standard library (go/parser, go/ast, go/types,
// go/importer) — no golang.org/x/tools dependency, preserving the module's
// zero-dependency claim. TestRepoClean runs it over the module under every
// build-tag configuration as part of `go test ./...`; there is no separate
// command.
//
// Three analyzers target the failure modes of this codebase's concurrent scan
// and cache paths:
//
//   - errwrap: fmt.Errorf calls that format an error operand must use %w so
//     errors.Is/As can traverse the chain, and errors.New(fmt.Sprintf(...))
//     must be fmt.Errorf.
//   - bufalias: values returned by functions annotated `pclint:recycled`
//     (per-batch scratch buffers recycled by the vectorized scan) must not
//     be retained beyond the batch callback.
//   - lockorder: one held-lock walk per function feeding a whole-program
//     lock-acquisition graph — reports cycles (potential deadlocks),
//     recursive acquisition, locks held across blocking operations (channel
//     ops, Wait, I/O), `guarded by` fields accessed without their mutex, and
//     lock-bearing structs copied by value.
//
// lockorder resolves calls through a CHA-style call graph over declarations
// shared via the Program (see callgraph.go and facts.go). The annotation
// conventions are documented in DESIGN.md §12.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath string // import path
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Program is the full set of loaded packages plus cross-package indexes the
// analyzers share (annotation facts, declarations, the call graph).
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	// Recycled holds function/method objects whose doc comment carries the
	// `pclint:recycled` marker: their results are batch-scoped buffers.
	Recycled map[types.Object]bool
	// Decls maps every declared function/method object to its syntax.
	Decls map[*types.Func]declInfo

	allows []allowRange
	cg     *CallGraph
	lo     *lockOrderState
}

// Analyzer is one pclint check.
type Analyzer interface {
	Name() string
	Run(prog *Program, pkg *Package) []Finding
}

// Analyzers returns the full suite in stable order.
func Analyzers() []Analyzer {
	return []Analyzer{ErrWrap{}, BufAlias{}, LockOrder{}}
}

// NewProgram builds the shared indexes over a set of loaded packages.
func NewProgram(fset *token.FileSet, pkgs []*Package) *Program {
	prog := &Program{Fset: fset, Packages: pkgs}
	prog.buildFacts()
	return prog
}

// Run executes the given analyzers over every package and returns findings
// sorted by position, with `pclint:allow` suppressions applied and exact
// duplicates removed.
func (prog *Program) Run(analyzers []Analyzer) []Finding {
	var out []Finding
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			for _, f := range a.Run(prog, pkg) {
				if prog.allowedAt(f.Analyzer, f.Pos) {
					continue
				}
				out = append(out, f)
			}
		}
	}
	// Canonical order: position, then analyzer, then message.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	dedup := out[:0]
	for i, f := range out {
		if i > 0 && f == out[i-1] {
			continue
		}
		dedup = append(dedup, f)
	}
	return dedup
}

func commentContains(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}

// isErrorType reports whether t is assignable to the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.AssignableTo(t, types.Universe.Lookup("error").Type())
}

// fileFuncs returns all top-level function declarations of the file.
func fileFuncs(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			out = append(out, fd)
		}
	}
	return out
}

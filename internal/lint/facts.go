package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file builds the Program-wide fact indexes the analyzers share: the
// pclint annotation vocabulary, suppression ranges, and the func-object ->
// declaration map.
//
// Annotation vocabulary (full reference in DESIGN.md §12):
//
//	// guarded by <mu>          field comment: lockorder guard
//	// pclint:held              func doc: caller holds the relevant lock
//	// pclint:recycled          func doc: result is a recycled per-batch buffer
//	// pclint:allow <analyzer>: <why>
//	//                          func doc or line comment: suppress one
//	//                          analyzer's findings for the function body or
//	//                          for the commented line (and the line below,
//	//                          so a comment can sit above the construct)

// declInfo ties a function object to its syntax and owning package.
type declInfo struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// allowRange suppresses one analyzer's findings for a line interval of a
// file.
type allowRange struct {
	file      string
	startLine int
	endLine   int
	analyzer  string
}

// buildFacts populates the Program's annotation and declaration indexes.
// Called once from NewProgram.
func (prog *Program) buildFacts() {
	prog.Recycled = make(map[types.Object]bool)
	prog.Decls = make(map[*types.Func]declInfo)

	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				prog.Decls[obj] = declInfo{Decl: fd, Pkg: pkg}
				if commentContains(fd.Doc, "pclint:recycled") {
					prog.Recycled[obj] = true
				}
			}
			prog.collectAllows(pkg, file)
		}
	}
}

// collectAllows indexes pclint:allow comments of one file. A line comment
// suppresses the commented line and the next (so the annotation can trail the
// construct or sit on its own line above); a function doc comment suppresses
// the whole body.
func (prog *Program) collectAllows(pkg *Package, file *ast.File) {
	record := func(c *ast.Comment, startLine, endLine int) {
		for _, analyzer := range parseAllows(c.Text) {
			pos := pkg.Fset.Position(c.Pos())
			prog.allows = append(prog.allows, allowRange{
				file:      pos.Filename,
				startLine: startLine,
				endLine:   endLine,
				analyzer:  analyzer,
			})
		}
	}
	// Function-doc allows cover the whole declaration.
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			if strings.Contains(c.Text, "pclint:allow ") {
				record(c, pkg.Fset.Position(fd.Pos()).Line, pkg.Fset.Position(fd.End()).Line)
			}
		}
	}
	// Every other comment covers its own line and the next.
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.Contains(c.Text, "pclint:allow ") {
				continue
			}
			line := pkg.Fset.Position(c.Pos()).Line
			record(c, line, line+1)
		}
	}
}

// parseAllows extracts analyzer names from a `pclint:allow a,b: reason`
// comment.
func parseAllows(text string) []string {
	var out []string
	rest := text
	for {
		i := strings.Index(rest, "pclint:allow ")
		if i < 0 {
			return out
		}
		rest = rest[i+len("pclint:allow "):]
		names := rest
		if j := strings.IndexAny(names, ":\n"); j >= 0 {
			names = names[:j]
		}
		for _, name := range strings.Split(names, ",") {
			if name = strings.TrimSpace(name); name != "" {
				out = append(out, name)
			}
		}
	}
}

// allowedAt reports whether findings of the analyzer are suppressed at pos.
func (prog *Program) allowedAt(analyzer string, pos token.Position) bool {
	for _, ar := range prog.allows {
		if ar.analyzer == analyzer && ar.file == pos.Filename &&
			ar.startLine <= pos.Line && pos.Line <= ar.endLine {
			return true
		}
	}
	return false
}

package lint

import (
	"go/ast"
	"go/types"
)

// GoroutineCtx verifies that no goroutine can silently leak: every `go`
// statement must either
//
//   - be joined in the spawning function — the function also calls
//     (*sync.WaitGroup).Wait (the spawn-and-wait pattern of the engine's
//     runWorkers), or
//   - be cancellable — the spawned function receives a context.Context
//     argument, or its body receives from a channel (<-ch, range over a
//     channel, or a select with a receive case), so closing the channel or
//     cancelling the context terminates it.
//
// Scan workers that satisfy neither can outlive the query that spawned
// them, holding slice buffers and cache references forever.
type GoroutineCtx struct{}

// Name implements Analyzer.
func (GoroutineCtx) Name() string { return "goroutinectx" }

// Run implements Analyzer.
func (GoroutineCtx) Run(prog *Program, pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, fd := range fileFuncs(file) {
			if fd.Body == nil {
				continue
			}
			waits := functionCallsWGWait(pkg.Info, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if waits || goroutineCancellable(pkg.Info, gs) {
					return true
				}
				out = append(out, Finding{
					Analyzer: "goroutinectx",
					Pos:      pkg.Fset.Position(gs.Pos()),
					Message:  "goroutine is neither joined by a sync.WaitGroup Wait in this function nor cancellable (no context argument or channel receive); it can leak",
				})
				return true
			})
		}
	}
	return out
}

// functionCallsWGWait reports whether the body contains a call to
// (*sync.WaitGroup).Wait.
func functionCallsWGWait(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Wait" {
			return true
		}
		obj, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		recv := obj.Type().(*types.Signature).Recv()
		if recv == nil {
			return true
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			o := named.Obj()
			if o.Pkg() != nil && o.Pkg().Path() == "sync" && o.Name() == "WaitGroup" {
				found = true
			}
		}
		return !found
	})
	return found
}

// goroutineCancellable reports whether the spawned call receives a
// cancellation signal.
func goroutineCancellable(info *types.Info, gs *ast.GoStmt) bool {
	// A context.Context argument (or any channel argument) counts: the
	// callee can observe cancellation.
	for _, arg := range gs.Call.Args {
		if t := info.TypeOf(arg); t != nil && (isContextType(t) || isChanType(t)) {
			return true
		}
	}
	// For `go func(){...}()`: the body must receive from a channel or use a
	// context it captured.
	if fl, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		return bodyReceivesSignal(info, fl.Body)
	}
	// For `go name(...)` / `go x.m(...)` with no signal-carrying argument:
	// if the method's receiver could hold a channel we cannot tell without
	// interprocedural analysis; be conservative and report.
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func isChanType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// bodyReceivesSignal looks for a channel receive anywhere in the body:
// <-ch, for range over a channel, or a select receive case. A context
// captured by the closure counts through its Done() channel receive.
func bodyReceivesSignal(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.UnaryExpr:
			if v.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(v.X); t != nil && isChanType(t) {
				found = true
			}
		}
		return !found
	})
	return found
}

package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// CallGraph is a CHA-style (class-hierarchy analysis) call graph over the
// loaded module packages. Static calls resolve to their single target;
// interface method calls resolve to every module-internal concrete method
// whose receiver type implements the interface ("all implementers might be
// the callee" — sound over the loaded program, which for this repo is the
// whole module). Calls through function-typed values are not resolved.
type CallGraph struct {
	prog *Program
	// callees lists the module-internal functions each declared function may
	// call, deduplicated, in deterministic order.
	callees map[*types.Func][]*types.Func
	// implCache memoizes CHA resolution per interface method.
	implCache map[*types.Func][]*types.Func
	// namedTypes is every named (non-interface) type declared in the module,
	// used as the CHA class hierarchy.
	namedTypes []*types.Named
}

// CallGraph lazily builds and returns the program's call graph.
func (prog *Program) CallGraph() *CallGraph {
	if prog.cg != nil {
		return prog.cg
	}
	cg := &CallGraph{
		prog:      prog,
		callees:   make(map[*types.Func][]*types.Func),
		implCache: make(map[*types.Func][]*types.Func),
	}
	cg.collectNamedTypes()
	for fn, di := range prog.Decls {
		if di.Decl.Body == nil {
			continue
		}
		set := make(map[*types.Func]bool)
		ast.Inspect(di.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range cg.ResolveCall(di.Pkg, call) {
				set[callee] = true
			}
			return true
		})
		list := make([]*types.Func, 0, len(set))
		for f := range set {
			list = append(list, f)
		}
		sort.Slice(list, func(i, j int) bool { return list[i].FullName() < list[j].FullName() })
		cg.callees[fn] = list
	}
	prog.cg = cg
	return cg
}

func (cg *CallGraph) collectNamedTypes() {
	for _, pkg := range cg.prog.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			cg.namedTypes = append(cg.namedTypes, named)
		}
	}
	sort.Slice(cg.namedTypes, func(i, j int) bool {
		return cg.namedTypes[i].Obj().Id() < cg.namedTypes[j].Obj().Id()
	})
}

// Callees returns the module-internal functions fn may call.
func (cg *CallGraph) Callees(fn *types.Func) []*types.Func { return cg.callees[fn] }

// ResolveCall resolves one call expression to its possible module-internal
// callees. The empty result means the callee is external (stdlib), a builtin,
// or an unresolvable function value.
func (cg *CallGraph) ResolveCall(pkg *Package, call *ast.CallExpr) []*types.Func {
	fn := calleeFunc(pkg.Info, call)
	if fn == nil {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
			return cg.implementers(fn, iface)
		}
	}
	if _, ok := cg.prog.Decls[fn]; ok {
		return []*types.Func{fn}
	}
	return nil
}

// implementers resolves an interface method to every module-internal concrete
// method that may satisfy the dynamic dispatch (CHA).
func (cg *CallGraph) implementers(m *types.Func, iface *types.Interface) []*types.Func {
	if out, ok := cg.implCache[m]; ok {
		return out
	}
	var out []*types.Func
	for _, named := range cg.namedTypes {
		var impl types.Type
		switch {
		case types.Implements(named, iface):
			impl = named
		case types.Implements(types.NewPointer(named), iface):
			impl = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if _, declared := cg.prog.Decls[fn]; declared {
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	cg.implCache[m] = out
	return out
}

// calleeFunc resolves the statically named function or method of a call,
// unwrapping parentheses. Returns nil for builtins, type conversions, and
// calls through function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch v := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[v].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[v.Sel].(*types.Func)
		return fn
	}
	return nil
}

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// LockOrder tracks the lexically held lock set through every function body
// and builds a program-wide lock-acquisition graph from it. One walk
// enforces five properties:
//
//  1. Acyclicity: if any execution can hold lock A while acquiring lock B,
//     the graph gains edge A→B; a cycle among *distinct* locks means two
//     goroutines can acquire them in opposite orders and deadlock. Edges are
//     collected both lexically (A.Lock() … B.Lock() in one body) and
//     interprocedurally: a call made while A is held contributes edges to
//     every lock the callee may (transitively, CHA-resolved) acquire.
//  2. No recursive acquisition: sync.Mutex is not reentrant, so acquiring a
//     mutex while the *same receiver expression's* same mutex is held
//     self-deadlocks. (Same-field locks on *different* receivers — e.g. two
//     tables locked by a join — are legitimate and are deliberately not
//     reported as a self-cycle; static analysis cannot order instances.)
//  3. No blocking under a lock: a lock held across a channel send/receive, a
//     select without a default, sync.WaitGroup/Cond.Wait, time.Sleep, or
//     file/network I/O turns that wait into lock-hold time for every other
//     goroutine — and can deadlock outright if the unblocking party needs
//     the same lock. Calls into module functions that may (transitively)
//     block are reported the same way.
//  4. Guarded fields: a struct field whose comment says `guarded by <mu>`
//     (<mu> a sync.Mutex/RWMutex field of the same struct) is only accessed
//     while <mu> is held. Functions named *Locked or marked `pclint:held`
//     run with the caller's lock held and are exempt, as are writes to a
//     value the function itself built from a composite literal.
//  5. No lock copies: a struct containing a sync or sync/atomic value is
//     never passed, received or returned by value, nor copied through *p.
//
// Lock identity is the mutex *field* (or package-level mutex variable):
// instance-insensitive, the standard class-level approximation. The walk is
// lexical: func literal bodies run elsewhere and are skipped, and lock state
// flows across calls only through the acquisition and blocking facts of the
// call graph. Suppress intentional patterns with
// `pclint:allow lockorder: <why>`.
type LockOrder struct{}

// Name implements Analyzer.
func (LockOrder) Name() string { return "lockorder" }

// lockEdge is one observed A-held-while-acquiring-B event.
type lockEdge struct {
	from, to *types.Var
	pos      token.Pos
	fn       string // function where observed (for the message)
	viaCall  string // non-empty when the acquisition happens inside a callee
}

// lockOrderState is the shared whole-program computation, built once and
// reused by every per-package Run call.
type lockOrderState struct {
	names    map[*types.Var]string // lock -> "pkg.Type.field" display name
	guards   map[*types.Var]guardInfo
	edges    []lockEdge
	findings []Finding // all packages; Run filters them per package
}

// guardInfo describes one field annotated `guarded by <mu>`.
type guardInfo struct {
	structName string
	fieldName  string
	mutexName  string
	mutex      *types.Var
}

// Run implements Analyzer. The analysis is whole-program; each per-package
// call reports the findings that fall in pkg's files.
func (lo LockOrder) Run(prog *Program, pkg *Package) []Finding {
	st := prog.lockOrderState()
	var out []Finding
	for _, f := range st.findings {
		if prog.fileInPackage(pkg, f.Pos.Filename) {
			out = append(out, f)
		}
	}
	return out
}

// fileInPackage reports whether filename belongs to pkg.
func (prog *Program) fileInPackage(pkg *Package, filename string) bool {
	for _, f := range pkg.Files {
		if prog.Fset.Position(f.Pos()).Filename == filename {
			return true
		}
	}
	return false
}

func (prog *Program) lockOrderState() *lockOrderState {
	if prog.lo != nil {
		return prog.lo
	}
	st := &lockOrderState{names: lockNames(prog)}
	st.collectGuards(prog)
	cg := prog.CallGraph()

	// Transitive facts over the call graph.
	acquires := transitiveAcquires(prog, cg)
	blocks := transitiveBlocks(prog, cg)

	// Walk every function once, tracking the lexically held set.
	fns := sortedDecls(prog)
	for _, fn := range fns {
		di := prog.Decls[fn]
		if di.Decl.Body == nil {
			continue
		}
		st.walkFunc(prog, cg, fn, di, acquires, blocks)
	}

	st.detectCycles(prog)
	prog.lo = st
	return st
}

// sortedDecls returns the declared functions in deterministic order.
func sortedDecls(prog *Program) []*types.Func {
	fns := make([]*types.Func, 0, len(prog.Decls))
	for fn := range prog.Decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	return fns
}

// lockNames maps every mutex-typed struct field and package-level mutex var
// of the module to a stable display name.
func lockNames(prog *Program) map[*types.Var]string {
	names := make(map[*types.Var]string)
	for _, pkg := range prog.Packages {
		short := pkg.Types.Name()
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Var:
				if isMutexType(obj.Type()) {
					names[obj] = short + "." + obj.Name()
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				stru, ok := named.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < stru.NumFields(); i++ {
					f := stru.Field(i)
					if isMutexType(f.Type()) {
						names[f] = short + "." + obj.Name() + "." + f.Name()
					}
				}
			}
		}
	}
	return names
}

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// collectGuards indexes every `guarded by <mu>` field annotation of the
// program and reports annotations whose <mu> is not a mutex field of the
// same struct.
func (st *lockOrderState) collectGuards(prog *Program) {
	st.guards = make(map[*types.Var]guardInfo)
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				stru, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range stru.Fields.List {
					mu := guardAnnotation(field)
					if mu == "" {
						continue
					}
					muVar := structFieldVar(pkg.Info, stru, mu)
					if muVar == nil || !isMutexType(muVar.Type()) {
						st.findings = append(st.findings, Finding{
							Analyzer: "lockorder",
							Pos:      pkg.Fset.Position(field.Pos()),
							Message:  fmt.Sprintf("field annotated `guarded by %s` but %s.%s is not a sync.Mutex/RWMutex field", mu, ts.Name.Name, mu),
						})
						continue
					}
					for _, name := range field.Names {
						if fv, ok := pkg.Info.Defs[name].(*types.Var); ok {
							st.guards[fv] = guardInfo{structName: ts.Name.Name, fieldName: name.Name, mutexName: mu, mutex: muVar}
						}
					}
				}
				return true
			})
		}
	}
}

// guardAnnotation extracts the mutex name from a field's comments.
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// structFieldVar resolves a field name of a struct type declaration.
func structFieldVar(info *types.Info, stru *ast.StructType, name string) *types.Var {
	for _, f := range stru.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				v, _ := info.Defs[n].(*types.Var)
				return v
			}
		}
	}
	return nil
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func isChanType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// lockAcqCall recognizes a Lock/RLock acquisition call and returns the lock
// variable (mutex struct field or package-level mutex var) plus the receiver
// expression's text for recursion detection. Unlock calls return delta -1.
func lockAcqCall(pkg *Package, call *ast.CallExpr) (lock *types.Var, recvText string, delta int, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return nil, "", 0, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		delta = 1
	case "Unlock", "RUnlock":
		delta = -1
	default:
		return nil, "", 0, false
	}
	switch inner := sel.X.(type) {
	case *ast.SelectorExpr: // x.mu.Lock()
		selInfo, okInfo := pkg.Info.Selections[inner]
		if !okInfo || selInfo.Kind() != types.FieldVal {
			return nil, "", 0, false
		}
		fv, okVar := selInfo.Obj().(*types.Var)
		if !okVar || !isMutexType(fv.Type()) {
			return nil, "", 0, false
		}
		return fv, exprText(inner.X), delta, true
	case *ast.Ident: // mu.Lock() — package-level or local mutex
		v, okVar := pkg.Info.Uses[inner].(*types.Var)
		if !okVar || !isMutexType(v.Type()) {
			return nil, "", 0, false
		}
		if v.Parent() != v.Pkg().Scope() {
			return nil, "", 0, false // local mutexes carry no cross-function order
		}
		return v, "", delta, true
	}
	return nil, "", 0, false
}

// exprText renders a receiver expression for same-instance comparison.
func exprText(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprText(v.X) + "." + v.Sel.Name
	case *ast.StarExpr:
		return "*" + exprText(v.X)
	case *ast.ParenExpr:
		return exprText(v.X)
	case *ast.IndexExpr:
		return exprText(v.X) + "[...]"
	case *ast.CallExpr:
		return exprText(v.Fun) + "(...)"
	}
	return "?"
}

// directAcquires returns the locks a single function body acquires directly.
func directAcquires(prog *Program, fn *types.Func) map[*types.Var]bool {
	di, ok := prog.Decls[fn]
	if !ok || di.Decl.Body == nil {
		return nil
	}
	out := make(map[*types.Var]bool)
	ast.Inspect(di.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if lock, _, delta, ok := lockAcqCall(di.Pkg, call); ok && delta > 0 {
				out[lock] = true
			}
		}
		return true
	})
	return out
}

// transitiveAcquires computes, per function, every lock it or any transitive
// module-internal callee may acquire.
func transitiveAcquires(prog *Program, cg *CallGraph) map[*types.Func]map[*types.Var]bool {
	acq := make(map[*types.Func]map[*types.Var]bool)
	for fn := range prog.Decls {
		direct := directAcquires(prog, fn)
		if len(direct) > 0 {
			acq[fn] = direct
		}
	}
	for changed := true; changed; {
		changed = false
		for fn := range prog.Decls {
			for _, g := range cg.Callees(fn) {
				for lock := range acq[g] {
					if acq[fn] == nil {
						acq[fn] = make(map[*types.Var]bool)
					}
					if !acq[fn][lock] {
						acq[fn][lock] = true
						changed = true
					}
				}
			}
		}
	}
	return acq
}

// directBlockOp recognizes a blocking construct and describes it; nil means
// the node does not block.
func directBlockOp(pkg *Package, n ast.Node) (string, bool) {
	switch v := n.(type) {
	case *ast.SendStmt:
		return "channel send", true
	case *ast.UnaryExpr:
		if v.Op == token.ARROW {
			return "channel receive", true
		}
	case *ast.RangeStmt:
		if t := pkg.Info.TypeOf(v.X); t != nil && isChanType(t) {
			return "range over channel", true
		}
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return "", false // has a default: non-blocking
			}
		}
		return "select without default", true
	case *ast.CallExpr:
		return blockingCall(pkg, v)
	}
	return "", false
}

// blockingCall recognizes calls that can park the goroutine: WaitGroup/Cond
// Wait, time.Sleep, and file/network I/O entry points.
func blockingCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	recvNamed := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			recvNamed = named.Obj().Name()
		}
	}
	switch {
	case path == "sync" && name == "Wait" && (recvNamed == "WaitGroup" || recvNamed == "Cond"):
		return "sync." + recvNamed + ".Wait", true
	case path == "time" && name == "Sleep":
		return "time.Sleep", true
	case path == "os" && recvNamed == "File" &&
		(name == "Read" || name == "ReadAt" || name == "Write" || name == "WriteAt" ||
			name == "WriteString" || name == "Sync" || name == "ReadFrom"):
		return "os.File." + name, true
	case path == "os" && (name == "ReadFile" || name == "WriteFile" || name == "Open" ||
		name == "Create" || name == "OpenFile" || name == "Rename" || name == "Remove" || name == "RemoveAll"):
		return "os." + name, true
	case path == "io" && (name == "Copy" || name == "CopyN" || name == "ReadAll" || name == "ReadFull"):
		return "io." + name, true
	case strings.HasPrefix(path, "net"):
		return path + "." + name, true
	case path == "os/exec" && (name == "Run" || name == "Output" || name == "CombinedOutput" || name == "Wait" || name == "Start"):
		return "os/exec." + name, true
	}
	return "", false
}

// functionDirectlyBlocks reports whether fn's own body (excluding nested func
// literals, which run on their own goroutine or batch schedule) contains a
// blocking construct.
func functionDirectlyBlocks(prog *Program, fn *types.Func) (string, bool) {
	di, ok := prog.Decls[fn]
	if !ok || di.Decl.Body == nil {
		return "", false
	}
	desc, found := "", false
	ast.Inspect(di.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if d, ok := directBlockOp(di.Pkg, n); ok {
			desc, found = d, true
		}
		return !found
	})
	return desc, found
}

// transitiveBlocks computes, per function, whether it may block directly or
// through any module-internal callee, with a deterministic description: the
// function's own blocking op, or the (lexicographically first) blocking
// callee it reaches.
func transitiveBlocks(prog *Program, cg *CallGraph) map[*types.Func]string {
	direct := make(map[*types.Func]string)
	mayBlock := make(map[*types.Func]bool)
	for fn := range prog.Decls {
		if desc, ok := functionDirectlyBlocks(prog, fn); ok {
			direct[fn] = desc
			mayBlock[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn := range prog.Decls {
			if mayBlock[fn] {
				continue
			}
			for _, g := range cg.Callees(fn) {
				if mayBlock[g] {
					mayBlock[fn] = true
					changed = true
					break
				}
			}
		}
	}
	blocks := make(map[*types.Func]string, len(mayBlock))
	for fn := range mayBlock {
		if desc, ok := direct[fn]; ok {
			blocks[fn] = desc
			continue
		}
		// Callees(fn) is sorted by FullName, so the first blocking callee is
		// deterministic.
		for _, g := range cg.Callees(fn) {
			if mayBlock[g] {
				blocks[fn] = "a blocking path through " + shortFuncName(g)
				break
			}
		}
	}
	return blocks
}

// shortFuncName renders pkg.Func or (*pkg.T).Method without the module path.
func shortFuncName(fn *types.Func) string {
	full := fn.FullName()
	prefix := ""
	if strings.HasPrefix(full, "(*") {
		prefix, full = "(*", full[2:]
	} else if strings.HasPrefix(full, "(") {
		prefix, full = "(", full[1:]
	}
	if i := strings.LastIndex(full, "/"); i >= 0 {
		full = full[i+1:]
	}
	return prefix + full
}

// heldLock is one lexically held lock.
type heldLock struct {
	lock     *types.Var
	recvText string
	readOnly bool // RLock: reentrant-safe for reads, still ordered
}

// walkFunc tracks the lexically held lock set through one function body,
// recording acquisition edges, recursive locks, blocking-under-lock and
// guarded-field accesses without the guard. Events are ordered by position;
// an Unlock immediately followed by return/break/continue releases only up
// to the end of the exiting statement (code below it runs on paths where the
// unlock never executed); deferred Unlocks never clear state (the lock is
// held to the end); func literal bodies are skipped (they run elsewhere).
func (st *lockOrderState) walkFunc(prog *Program, cg *CallGraph, fn *types.Func, di declInfo,
	acquires map[*types.Func]map[*types.Var]bool, blocks map[*types.Func]string) {

	pkg := di.Pkg
	body := di.Decl.Body
	fname := shortFuncName(fn)
	st.findings = append(st.findings, checkCopies(pkg, di.Decl)...)

	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok {
			deferred[ds.Call] = true
		}
		return true
	})
	exiting := collectExiting(body)
	var fresh map[types.Object]bool
	checkGuards := len(st.guards) > 0 && !holdsAll(di.Decl)
	if checkGuards {
		fresh = freshLocals(pkg, body)
	}

	// One lexical pass, position-ordered events.
	type event struct {
		pos   token.Pos
		node  ast.Node
		call  *ast.CallExpr
		guard *guardInfo // access to a guarded field
	}
	var events []event
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			events = append(events, event{pos: v.Pos(), node: v, call: v})
		case *ast.SendStmt, *ast.SelectStmt, *ast.RangeStmt:
			events = append(events, event{pos: n.Pos(), node: n})
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				events = append(events, event{pos: v.Pos(), node: v})
			}
		case *ast.SelectorExpr:
			if checkGuards {
				if gi, ok := st.guardedAccess(pkg, v, fresh); ok {
					events = append(events, event{pos: v.Pos(), node: v, guard: &gi})
				}
			}
		}
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	var held []heldLock
	// restores maps a position to locks to re-add once passed (early-exit
	// unlock pattern).
	type restore struct {
		pos token.Pos
		l   heldLock
	}
	var restores []restore

	release := func(lock *types.Var) (heldLock, bool) {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].lock == lock {
				h := held[i]
				held = append(held[:i], held[i+1:]...)
				return h, true
			}
		}
		return heldLock{}, false
	}
	heldIndex := func(lock *types.Var) int {
		for i := range held {
			if held[i].lock == lock {
				return i
			}
		}
		return -1
	}

	report := func(pos token.Pos, msg string) {
		st.findings = append(st.findings, Finding{
			Analyzer: "lockorder",
			Pos:      pkg.Fset.Position(pos),
			Message:  msg,
		})
	}

	for _, ev := range events {
		// Apply pending restores that end before this event.
		for i := 0; i < len(restores); {
			if restores[i].pos <= ev.pos {
				held = append(held, restores[i].l)
				restores = append(restores[:i], restores[i+1:]...)
			} else {
				i++
			}
		}

		if gi := ev.guard; gi != nil {
			if heldIndex(gi.mutex) < 0 {
				report(ev.pos, fmt.Sprintf("%s.%s is accessed without holding %s (field is `guarded by %s`)",
					gi.structName, gi.fieldName, gi.mutexName, gi.mutexName))
			}
			continue
		}
		if ev.call != nil {
			call := ev.call
			if lock, recvText, delta, ok := lockAcqCall(pkg, call); ok {
				if delta < 0 {
					if deferred[call] {
						continue // releases at return, after everything lexical
					}
					if h, ok := release(lock); ok {
						if end, isExit := exiting[call]; isExit {
							restores = append(restores, restore{pos: end, l: h})
						}
					}
					continue
				}
				// Acquisition: recursion + ordering edges.
				if i := heldIndex(lock); i >= 0 {
					h := held[i]
					if h.recvText == recvText && !(h.readOnly && isRLockCall(call)) {
						report(call.Pos(), fmt.Sprintf(
							"%s acquires %s while already holding it (receiver %q): sync mutexes are not reentrant — this self-deadlocks",
							fname, st.names[lock], recvText))
					}
				}
				for _, h := range held {
					if h.lock != lock {
						st.edges = append(st.edges, lockEdge{from: h.lock, to: lock, pos: call.Pos(), fn: fname})
					}
				}
				held = append(held, heldLock{lock: lock, recvText: recvText, readOnly: isRLockCall(call)})
				continue
			}
			// Non-lock call while holding: interprocedural edges + blocking.
			if len(held) > 0 && !deferred[call] {
				callees := cg.ResolveCall(pkg, call)
				for _, g := range callees {
					for lock := range acquires[g] {
						for _, h := range held {
							if h.lock != lock {
								st.edges = append(st.edges, lockEdge{
									from: h.lock, to: lock, pos: call.Pos(),
									fn: fname, viaCall: shortFuncName(g),
								})
							} else if h.recvText == "" || receiverMayAlias(pkg, call, h.recvText) {
								report(call.Pos(), fmt.Sprintf(
									"%s calls %s while holding %s, which %s may re-acquire: potential self-deadlock",
									fname, shortFuncName(g), st.names[lock], shortFuncName(g)))
							}
						}
					}
					if desc, ok := blocks[g]; ok {
						report(call.Pos(), fmt.Sprintf(
							"%s holds %s across call to %s, which may block on %s",
							fname, heldNames(st.names, held), shortFuncName(g), desc))
					}
				}
				if len(callees) == 0 {
					if desc, ok := blockingCall(pkg, call); ok {
						report(call.Pos(), fmt.Sprintf(
							"%s holds %s across blocking operation (%s)",
							fname, heldNames(st.names, held), desc))
					}
				}
			}
			continue
		}

		// Non-call blocking constructs.
		if len(held) > 0 {
			if desc, ok := directBlockOp(pkg, ev.node); ok {
				report(ev.node.Pos(), fmt.Sprintf(
					"%s holds %s across blocking operation (%s)",
					fname, heldNames(st.names, held), desc))
			}
		}
	}
}

// guardedAccess reports whether sel reads or writes a guarded field of a
// value other than one of the function's fresh locals.
func (st *lockOrderState) guardedAccess(pkg *Package, sel *ast.SelectorExpr, fresh map[types.Object]bool) (guardInfo, bool) {
	selInfo, ok := pkg.Info.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return guardInfo{}, false
	}
	fv, ok := selInfo.Obj().(*types.Var)
	if !ok {
		return guardInfo{}, false
	}
	gi, ok := st.guards[fv]
	if !ok {
		return guardInfo{}, false
	}
	if base, isIdent := sel.X.(*ast.Ident); isIdent && fresh[pkg.Info.Uses[base]] {
		return guardInfo{}, false
	}
	return gi, true
}

// freshLocals returns the locals bound to a composite literal (or its
// address) in body: constructors write their fields before anything else
// can see them.
func freshLocals(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			rhs := as.Rhs[i]
			if ue, ok := rhs.(*ast.UnaryExpr); ok && ue.Op == token.AND {
				rhs = ue.X
			}
			if _, ok := rhs.(*ast.CompositeLit); ok {
				if obj := pkg.Info.Defs[id]; obj != nil {
					fresh[obj] = true
				}
			}
		}
		return true
	})
	return fresh
}

// holdsAll reports whether fd runs with the caller's lock held (the *Locked
// suffix or the pclint:held marker).
func holdsAll(fd *ast.FuncDecl) bool {
	return strings.HasSuffix(fd.Name.Name, "Locked") || commentContains(fd.Doc, "pclint:held")
}

// checkCopies flags by-value copies of lock-bearing structs: value
// receivers, parameters and results, and *p dereferences.
func checkCopies(pkg *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	flag := func(pos token.Pos, what string, t types.Type) {
		out = append(out, Finding{
			Analyzer: "lockorder",
			Pos:      pkg.Fset.Position(pos),
			Message:  fmt.Sprintf("%s copies lock-bearing struct %s; use a pointer", what, types.TypeString(t, types.RelativeTo(pkg.Types))),
		})
	}
	for _, fl := range []struct {
		what   string
		fields *ast.FieldList
	}{{"method receiver", fd.Recv}, {"parameter", fd.Type.Params}, {"result", fd.Type.Results}} {
		if fl.fields == nil {
			continue
		}
		for _, f := range fl.fields.List {
			if t := pkg.Info.TypeOf(f.Type); t != nil && !isPointer(t) && containsLock(t, nil) {
				flag(f.Pos(), fl.what, t)
			}
		}
	}
	// Writing through the pointer (*p = x) also lands here; both sides of
	// *p = *q copy a struct anyway.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if se, ok := n.(*ast.StarExpr); ok {
			if t := pkg.Info.TypeOf(se); t != nil && containsLock(t, nil) {
				flag(se.Pos(), "dereference", t)
			}
		}
		return true
	})
	return out
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// containsLock reports whether t (transitively through struct fields and
// arrays) contains a sync or sync/atomic value whose copy would be unsafe.
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync":
				return obj.Name() != "Locker" // every sync value type pins memory
			case "sync/atomic":
				return true // atomic types carry noCopy
			}
		}
		return containsLock(named.Underlying(), seen)
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}

// receiverMayAlias reports whether the called method's receiver expression
// textually matches the lock's receiver — the conservative same-instance
// test for call-through re-acquisition.
func receiverMayAlias(pkg *Package, call *ast.CallExpr, recvText string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return true // unqualified call: cannot rule aliasing out
	}
	return exprText(sel.X) == recvText
}

func isRLockCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "RLock"
}

func heldNames(names map[*types.Var]string, held []heldLock) string {
	parts := make([]string, 0, len(held))
	for _, h := range held {
		parts = append(parts, names[h.lock])
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// collectExiting maps Unlock-style calls immediately followed by
// return/break/continue to the end position of the exiting statement: the
// `if miss { mu.Unlock(); return }` early-exit pattern.
func collectExiting(body *ast.BlockStmt) map[*ast.CallExpr]token.Pos {
	exiting := make(map[*ast.CallExpr]token.Pos)
	ast.Inspect(body, func(n ast.Node) bool {
		var stmts []ast.Stmt
		switch v := n.(type) {
		case *ast.BlockStmt:
			stmts = v.List
		case *ast.CaseClause:
			stmts = v.Body
		case *ast.CommClause:
			stmts = v.Body
		default:
			return true
		}
		for i := 0; i+1 < len(stmts); i++ {
			es, ok := stmts[i].(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			switch stmts[i+1].(type) {
			case *ast.ReturnStmt, *ast.BranchStmt:
				exiting[call] = stmts[i+1].End()
			}
		}
		return true
	})
	return exiting
}

// detectCycles finds strongly connected components with more than one lock in
// the acquisition graph and reports each once, deterministically.
func (st *lockOrderState) detectCycles(prog *Program) {
	// Adjacency with a representative (earliest-position) edge per pair.
	type pair struct{ from, to *types.Var }
	repr := make(map[pair]lockEdge)
	adj := make(map[*types.Var]map[*types.Var]bool)
	for _, e := range st.edges {
		p := pair{e.from, e.to}
		if old, ok := repr[p]; !ok || e.pos < old.pos {
			repr[p] = e
		}
		if adj[e.from] == nil {
			adj[e.from] = make(map[*types.Var]bool)
		}
		adj[e.from][e.to] = true
	}

	// Deterministic node order.
	nodes := make([]*types.Var, 0, len(adj))
	seen := make(map[*types.Var]bool)
	add := func(v *types.Var) {
		if !seen[v] {
			seen[v] = true
			nodes = append(nodes, v)
		}
	}
	for _, e := range st.edges {
		add(e.from)
		add(e.to)
	}
	sort.Slice(nodes, func(i, j int) bool { return st.names[nodes[i]] < st.names[nodes[j]] })

	// Tarjan SCC (iterative enough at this scale via recursion).
	index := make(map[*types.Var]int)
	low := make(map[*types.Var]int)
	onStack := make(map[*types.Var]bool)
	var stack []*types.Var
	next := 0
	var sccs [][]*types.Var
	var strongconnect func(v *types.Var)
	strongconnect = func(v *types.Var) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		// Deterministic successor order.
		succs := make([]*types.Var, 0, len(adj[v]))
		for w := range adj[v] {
			succs = append(succs, w)
		}
		sort.Slice(succs, func(i, j int) bool { return st.names[succs[i]] < st.names[succs[j]] })
		for _, w := range succs {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}

	for _, scc := range sccs {
		names := make([]string, 0, len(scc))
		inSCC := make(map[*types.Var]bool, len(scc))
		for _, v := range scc {
			names = append(names, st.names[v])
			inSCC[v] = true
		}
		sort.Strings(names)
		// Representative edge: the earliest-position internal edge.
		var best lockEdge
		haveBest := false
		for p, e := range repr {
			if !inSCC[p.from] || !inSCC[p.to] {
				continue
			}
			if !haveBest || e.pos < best.pos {
				best, haveBest = e, true
			}
		}
		if !haveBest {
			continue
		}
		via := ""
		if best.viaCall != "" {
			via = " via call to " + best.viaCall
		}
		st.findings = append(st.findings, Finding{
			Analyzer: "lockorder",
			Pos:      prog.Fset.Position(best.pos),
			Message: fmt.Sprintf(
				"lock-order cycle among {%s}: %s acquires %s while holding %s%s — opposite-order acquisition elsewhere can deadlock",
				strings.Join(names, ", "), best.fn, st.names[best.to], st.names[best.from], via),
		})
	}
}

package engine

import (
	"sort"

	"github.com/predcache/predcache/internal/expr"
)

// ClonePlan deep-copies a plan tree, passing every literal expr.Value through
// bind. The plan cache uses it twice: at Put time with the identity function
// to detach the cached template from the node the caller is about to execute
// (Join.Execute mutates probe scans transiently via runtimeSJ pushdown), and
// at Get time to substitute the current query's literals into the template.
//
// Every clone of a grouped Agg shares the original's group-count cell
// (created here when the original has none), so a template and the plans
// cloned from it size their tables from whichever of them ran last.
//
// ok is false when the tree contains a node the cloner does not understand —
// VirtualScan (its snapshot semantics are per-execution), Materialized, or
// any future node type — in which case the caller must plan from scratch.
func ClonePlan(n Node, bind func(expr.Value) expr.Value) (Node, bool) {
	switch t := n.(type) {
	case *Scan:
		filter, ok := expr.RebindPred(t.Filter, bind)
		if !ok {
			return nil, false
		}
		cp := &Scan{Table: t.Table, Filter: filter, Alias: t.Alias}
		if t.Project != nil {
			cp.Project = append([]string(nil), t.Project...)
		}
		return cp, true
	case *Join:
		left, ok := ClonePlan(t.Left, bind)
		if !ok {
			return nil, false
		}
		right, ok := ClonePlan(t.Right, bind)
		if !ok {
			return nil, false
		}
		cp := &Join{
			Left:         left,
			Right:        right,
			LeftKeys:     append([]string(nil), t.LeftKeys...),
			RightKeys:    append([]string(nil), t.RightKeys...),
			Type:         t.Type,
			PushSemiJoin: t.PushSemiJoin,
		}
		if t.Project != nil {
			cp.Project = append([]string(nil), t.Project...)
		}
		return cp, true
	case *Agg:
		in, ok := ClonePlan(t.Input, bind)
		if !ok {
			return nil, false
		}
		aggs := make([]AggSpec, len(t.Aggs))
		for i, a := range t.Aggs {
			arg, ok := expr.RebindScalar(a.Arg, bind)
			if !ok {
				return nil, false
			}
			aggs[i] = AggSpec{Func: a.Func, Arg: arg, Name: a.Name}
		}
		cp := &Agg{Input: in, GroupBy: append([]string(nil), t.GroupBy...), Aggs: aggs}
		if len(t.GroupBy) > 0 {
			cp.groups = t.groupCount()
		}
		return cp, true
	case *Project:
		in, ok := ClonePlan(t.Input, bind)
		if !ok {
			return nil, false
		}
		exprs := make([]NamedScalar, len(t.Exprs))
		for i, ns := range t.Exprs {
			e, ok := expr.RebindScalar(ns.Expr, bind)
			if !ok {
				return nil, false
			}
			exprs[i] = NamedScalar{Expr: e, Name: ns.Name}
		}
		return &Project{Input: in, Exprs: exprs}, true
	case *Filter:
		in, ok := ClonePlan(t.Input, bind)
		if !ok {
			return nil, false
		}
		pred, ok := expr.RebindPred(t.Pred, bind)
		if !ok {
			return nil, false
		}
		return &Filter{Input: in, Pred: pred}, true
	case *Sort:
		in, ok := ClonePlan(t.Input, bind)
		if !ok {
			return nil, false
		}
		return &Sort{Input: in, Keys: append([]SortKey(nil), t.Keys...)}, true
	case *Limit:
		in, ok := ClonePlan(t.Input, bind)
		if !ok {
			return nil, false
		}
		return &Limit{Input: in, N: t.N}, true
	case *Union:
		ins := make([]Node, len(t.Inputs))
		for i, u := range t.Inputs {
			in, ok := ClonePlan(u, bind)
			if !ok {
				return nil, false
			}
			ins[i] = in
		}
		return &Union{Inputs: ins}, true
	}
	return nil, false
}

// PlanTables returns the sorted, deduplicated base tables a plan scans.
// Virtual (pc.*) tables are not included — plans touching them are never
// cached in the first place (ClonePlan rejects VirtualScan).
func PlanTables(n Node) []string {
	var tables []string
	walkNodes(n, func(nd Node) {
		if s, ok := nd.(*Scan); ok {
			tables = append(tables, s.Table)
		}
	})
	sort.Strings(tables)
	uniq := tables[:0]
	for i, t := range tables {
		if i == 0 || tables[i-1] != t {
			uniq = append(uniq, t)
		}
	}
	return uniq
}

// PlanSlots appends every bind-slot tag found on literal Values in the plan
// to dst (duplicates included — the planner copies factored predicates into
// several places). It reports false when the plan contains an expression
// node the value walker does not understand.
func PlanSlots(n Node, dst *[]int) bool {
	ok := true
	visit := func(v expr.Value) {
		if v.Slot != 0 {
			*dst = append(*dst, v.Slot)
		}
	}
	walkNodes(n, func(nd Node) {
		switch t := nd.(type) {
		case *Scan:
			if t.Filter != nil && !expr.WalkPredValues(t.Filter, visit) {
				ok = false
			}
		case *Filter:
			if !expr.WalkPredValues(t.Pred, visit) {
				ok = false
			}
		case *Project:
			for _, ns := range t.Exprs {
				if !expr.WalkScalarValues(ns.Expr, visit) {
					ok = false
				}
			}
		case *Agg:
			for _, a := range t.Aggs {
				if a.Arg != nil && !expr.WalkScalarValues(a.Arg, visit) {
					ok = false
				}
			}
		case *VirtualScan, *Materialized:
			ok = false
		}
	})
	return ok
}

package engine

import (
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/obs"
)

// Classify buckets a plan into one of the SLO latency classes: "agg" when
// any aggregation runs, "point" when every base-table scan filters on pure
// equality (the cache-friendly repeated lookups of §2), "range" otherwise.
// DML statements never reach here — the DB facade classifies them directly.
func Classify(node Node) string {
	hasAgg, allPoint, sawScan := false, true, false
	walkNodes(node, func(n Node) {
		switch t := n.(type) {
		case *Agg:
			hasAgg = true
		case *Scan:
			sawScan = true
			if !pointPred(t.Filter) {
				allPoint = false
			}
		case *VirtualScan:
			sawScan = true
			if !pointPred(t.Filter) {
				allPoint = false
			}
		case *Join:
			allPoint = false
		}
	})
	switch {
	case hasAgg:
		return obs.ClassAgg
	case sawScan && allPoint:
		return obs.ClassPoint
	default:
		return obs.ClassRange
	}
}

// pointPred reports whether p is a pure equality predicate (conjunctions of
// equality comparisons included).
func pointPred(p expr.Pred) bool {
	switch t := p.(type) {
	case nil:
		return false
	case *expr.CmpPred:
		return t.Op == expr.Eq
	case *expr.AndPred:
		for _, c := range t.Children {
			if !pointPred(c) {
				return false
			}
		}
		return len(t.Children) > 0
	default:
		return false
	}
}

// walkNodes visits every node of the plan tree in preorder.
func walkNodes(n Node, visit func(Node)) {
	if n == nil {
		return
	}
	visit(n)
	switch t := n.(type) {
	case *Scan, *VirtualScan, *Materialized:
		// leaves
	case *Join:
		walkNodes(t.Left, visit)
		walkNodes(t.Right, visit)
	case *Agg:
		walkNodes(t.Input, visit)
	case *Project:
		walkNodes(t.Input, visit)
	case *Filter:
		walkNodes(t.Input, visit)
	case *Sort:
		walkNodes(t.Input, visit)
	case *Limit:
		walkNodes(t.Input, visit)
	case *Union:
		for _, in := range t.Inputs {
			walkNodes(in, visit)
		}
	}
}

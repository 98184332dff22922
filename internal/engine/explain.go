package engine

import (
	"fmt"
	"strings"
)

// Explain renders a plan tree as indented text (the pcsh \explain command
// and debugging aid).
func Explain(n Node) string {
	var b strings.Builder
	explainNode(&b, n, 0)
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

// nodeLabel returns the one-line header describing a plan node (no
// children). Explain and the trace-span instrumentation share it so
// EXPLAIN and EXPLAIN ANALYZE name operators identically.
func nodeLabel(n Node) string {
	var b strings.Builder
	switch t := n.(type) {
	case *Scan:
		fmt.Fprintf(&b, "Scan %s", t.Table)
		if t.Alias != "" {
			fmt.Fprintf(&b, " as %s", t.Alias)
		}
		if t.Filter != nil {
			fmt.Fprintf(&b, " filter=%s", t.Filter.Key())
		}
		if t.Project != nil {
			fmt.Fprintf(&b, " cols=%v", t.Project)
		}
	case *VirtualScan:
		fmt.Fprintf(&b, "VirtualScan %s", t.Source.Name())
		if t.Alias != "" {
			fmt.Fprintf(&b, " as %s", t.Alias)
		}
		if t.Filter != nil {
			fmt.Fprintf(&b, " filter=%s", t.Filter.Key())
		}
		if t.Project != nil {
			fmt.Fprintf(&b, " cols=%v", t.Project)
		}
	case *Join:
		fmt.Fprintf(&b, "Join %s on %v = %v", t.Type, t.LeftKeys, t.RightKeys)
		if t.PushSemiJoin {
			b.WriteString(" [semi-join filter pushdown]")
		}
		if t.Project != nil {
			fmt.Fprintf(&b, " cols=%v", t.Project)
		}
	case *Agg:
		fmt.Fprintf(&b, "Aggregate group=%v aggs=[", t.GroupBy)
		for i, a := range t.Aggs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.Name)
		}
		b.WriteString("]")
	case *Project:
		b.WriteString("Project [")
		for i, e := range t.Exprs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.Name)
		}
		b.WriteString("]")
	case *Filter:
		fmt.Fprintf(&b, "Filter %s", t.Pred.Key())
	case *Sort:
		b.WriteString("Sort [")
		for i, k := range t.Keys {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k.Col)
			if k.Desc {
				b.WriteString(" desc")
			}
		}
		b.WriteString("]")
	case *Limit:
		fmt.Fprintf(&b, "Limit %d", t.N)
	case *Union:
		b.WriteString("Union")
	case *Materialized:
		fmt.Fprintf(&b, "Materialized (%d rows)", t.Rel.NumRows())
	default:
		fmt.Fprintf(&b, "%T", n)
	}
	return b.String()
}

func explainNode(b *strings.Builder, n Node, depth int) {
	indent(b, depth)
	b.WriteString(nodeLabel(n))
	b.WriteByte('\n')
	switch t := n.(type) {
	case *Join:
		explainNode(b, t.Left, depth+1)
		explainNode(b, t.Right, depth+1)
	case *Agg:
		explainNode(b, t.Input, depth+1)
	case *Project:
		explainNode(b, t.Input, depth+1)
	case *Filter:
		explainNode(b, t.Input, depth+1)
	case *Sort:
		explainNode(b, t.Input, depth+1)
	case *Limit:
		explainNode(b, t.Input, depth+1)
	case *Union:
		for _, in := range t.Inputs {
			explainNode(b, in, depth+1)
		}
	}
}

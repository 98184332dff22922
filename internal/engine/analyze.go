package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/predcache/predcache/internal/obs"
)

// beginNodeSpan opens the trace span for one operator execution. The
// disabled path (no trace on the context) costs the nil check and returns
// the inert zero SpanRef.
func beginNodeSpan(ec *ExecCtx, n Node) obs.SpanRef {
	if ec.Trace == nil {
		return obs.SpanRef{}
	}
	return ec.Trace.Begin(obs.KindNode, nodeLabel(n))
}

// endNodeSpan closes an operator span, annotating it with the output
// cardinality or the error that aborted it.
func endNodeSpan(sp obs.SpanRef, rel *Relation, err error) {
	if sp.Active() {
		if err != nil {
			sp.SetStr("error", err.Error())
		} else if rel != nil {
			sp.SetInt("rows.out", int64(rel.NumRows()))
		}
	}
	sp.End()
}

// setRowsIn annotates a span with its input cardinality (unary operators).
func setRowsIn(sp obs.SpanRef, rel *Relation) {
	if sp.Active() && rel != nil {
		sp.SetInt("rows.in", int64(rel.NumRows()))
	}
}

// RenderAnalyze formats a query trace as the EXPLAIN ANALYZE tree: plan
// operators annotated with wall time and cardinalities, scans additionally
// with their block-elimination breakdown (zone maps vs predicate cache) and
// cache outcome, and cache/slice events indented beneath the scan that
// produced them.
func RenderAnalyze(tr *obs.Trace) string {
	spans := tr.Spans()
	if len(spans) == 0 {
		return "(no trace recorded)\n"
	}
	children := make(map[int][]int)
	var roots []int
	for _, sp := range spans {
		if sp.Parent < 0 {
			roots = append(roots, sp.ID)
		} else {
			children[sp.Parent] = append(children[sp.Parent], sp.ID)
		}
	}
	var b strings.Builder
	var walk func(id, depth int)
	walk = func(id, depth int) {
		sp := &spans[id]
		b.WriteString(strings.Repeat("  ", depth))
		writeAnalyzeSpan(&b, sp)
		b.WriteByte('\n')
		ids := children[id]
		sort.Ints(ids)
		for _, c := range ids {
			walk(c, depth+1)
		}
	}
	sort.Ints(roots)
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}

// analyzeDur rounds span durations for display.
func analyzeDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

// writeAnalyzeSpan renders one span line by kind.
func writeAnalyzeSpan(b *strings.Builder, sp *obs.Span) {
	switch sp.Kind {
	case obs.KindPhase:
		fmt.Fprintf(b, "%s: %s", sp.Name, analyzeDur(sp.Dur))
	case obs.KindNode:
		b.WriteString(sp.Name)
		fmt.Fprintf(b, "  (time=%s", analyzeDur(sp.Dur))
		if v, ok := sp.IntAttr("rows.in"); ok {
			fmt.Fprintf(b, " rows.in=%d", v)
		}
		if v, ok := sp.IntAttr("rows.out"); ok {
			fmt.Fprintf(b, " rows=%d", v)
		}
		b.WriteString(")")
		if outcome, ok := sp.StrAttr("cache"); ok {
			fmt.Fprintf(b, " cache=%s", outcome)
		}
		if v, ok := sp.IntAttr("blocks.accessed"); ok {
			zm, _ := sp.IntAttr("blocks.pruned.zonemap")
			pc, _ := sp.IntAttr("blocks.pruned.cache")
			fmt.Fprintf(b, " blocks(accessed=%d pruned.zonemap=%d pruned.cache=%d)", v, zm, pc)
		}
		if v, ok := sp.IntAttr("blocks.decoded"); ok {
			ke, _ := sp.IntAttr("blocks.kernel_encoded")
			fmt.Fprintf(b, " kernels(decoded=%d encoded=%d)", v, ke)
		}
		if v, ok := sp.IntAttr("rows.scanned"); ok {
			q, _ := sp.IntAttr("rows.qualified")
			rd, _ := sp.IntAttr("rows.decoded")
			fmt.Fprintf(b, " rows(scanned=%d qualified=%d decoded=%d)", v, q, rd)
		}
		if w, ok := sp.IntAttr("parallel.workers"); ok {
			fmt.Fprintf(b, " parallel(workers=%d", w)
			if m, ok := sp.IntAttr("parallel.morsels"); ok {
				fmt.Fprintf(b, " morsels=%d", m)
			}
			us, _ := sp.IntAttr("parallel.cpu_us")
			// cpu vs the node's wall time is the parallel-efficiency signal:
			// cpu ≈ wall means one busy worker, cpu ≈ W×wall means W.
			fmt.Fprintf(b, " cpu=%s)", analyzeDur(time.Duration(us)*time.Microsecond))
		}
		if v, ok := sp.IntAttr("filters.fused"); ok {
			fmt.Fprintf(b, " fused.filters=%d", v)
		}
		if msg, ok := sp.StrAttr("error"); ok {
			fmt.Fprintf(b, " ERROR: %s", msg)
		}
	default: // cache and slice events
		fmt.Fprintf(b, "[%s %s", sp.Kind, sp.Name)
		for _, a := range sp.Attrs {
			if a.IsStr {
				fmt.Fprintf(b, " %s=%s", a.Key, a.Str)
			} else {
				fmt.Fprintf(b, " %s=%d", a.Key, a.Int)
			}
		}
		fmt.Fprintf(b, " (%s)]", analyzeDur(sp.Dur))
	}
}

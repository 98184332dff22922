package sql

import (
	"fmt"
	"sort"
	"strings"

	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/storage"
)

// Plan lowers a parsed statement to an engine plan tree. The planner:
//
//   - resolves columns to tables (bare names must be unambiguous; aliased
//     references use "alias.col"),
//   - splits WHERE into per-table filters (pushed into scans — the
//     predicates the cache keys on), equi-join edges, and residual
//     post-join filters,
//   - orders joins largest-table-first so that fact tables sit on the probe
//     side and dimension scans on the build side, enabling semi-join-filter
//     pushdown (§4.4),
//   - lowers aggregates, HAVING, ORDER BY and LIMIT,
//   - narrows each scan to the columns the statement reads, marked as their
//     names resolve.
func Plan(stmt *SelectStmt, cat *storage.Catalog) (engine.Node, error) {
	return PlanWith(stmt, cat, nil)
}

// VirtualResolver resolves schema-qualified system-table names (the `pc`
// schema) to their providers. A nil resolver plans against base tables only.
type VirtualResolver interface {
	VirtualTable(name string) (engine.VirtualTable, bool)
}

// PlanWith plans a statement against the catalog plus a resolver for
// virtual system tables, which lower to engine.VirtualScan nodes.
func PlanWith(stmt *SelectStmt, cat *storage.Catalog, virt VirtualResolver) (engine.Node, error) {
	pl := &planner{cat: cat, virt: virt, stmt: stmt}
	return pl.plan()
}

// PlanSQL parses and plans in one step.
func PlanSQL(query string, cat *storage.Catalog) (engine.Node, error) {
	return PlanSQLWith(query, cat, nil)
}

// PlanSQLWith parses and plans with virtual-table resolution.
func PlanSQLWith(query string, cat *storage.Catalog, virt VirtualResolver) (engine.Node, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return PlanWith(stmt, cat, virt)
}

type tableInfo struct {
	ref TableRef
	// Exactly one of tbl (base table) and vt (virtual system table) is set;
	// schema and rows describe whichever it is.
	tbl    *storage.Table
	vt     engine.VirtualTable
	schema storage.Schema
	rows   int
	// filters are single-table conjuncts in base-column names.
	filters []expr.Pred
	// used marks the base columns read above the scan, recorded as names
	// resolve; narrowScans turns them into the scan's projection.
	used map[string]bool
	// project is the Project field of the table's scan node.
	project *[]string
}

type joinEdge struct {
	a, b       int    // table indexes
	aCol, bCol string // relation-level (possibly aliased) column names
}

type planner struct {
	cat  *storage.Catalog
	virt VirtualResolver
	stmt *SelectStmt

	tables []*tableInfo
	// colOwner maps bare column names to the owning table index, or -2 when
	// ambiguous.
	colOwner map[string]int
	edges    []joinEdge
	residual []expr.Pred
	// star is set by `select *`, whose scans keep every column.
	star bool
	// read marks the relation-level names relName resolves: those read
	// above the join tree, which narrowScans makes the top join's columns.
	read map[string]bool
	// anchor is the join tree's probe table, join the top join (or nil).
	anchor int
	join   *engine.Join
}

// outName returns the relation-level name a base column gets after the
// table's scan (alias-prefixed when the table is aliased).
func (pl *planner) outName(ti int, col string) string {
	if a := pl.tables[ti].ref.Alias; a != "" {
		return a + "." + col
	}
	return col
}

// resolve maps a written column reference to (table index, base column).
// It marks nothing used: filters pushed into a scan resolve through it, and
// the scan evaluates them without projecting their columns.
func (pl *planner) resolve(name string) (int, string, error) {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		alias, col := name[:i], name[i+1:]
		for ti, t := range pl.tables {
			if t.ref.Alias == alias || (t.ref.Alias == "" && t.ref.Table == alias) {
				if t.schema.ColumnIndex(col) < 0 {
					return 0, "", fmt.Errorf("sql: table %s has no column %q", t.ref.Table, col)
				}
				return ti, col, nil
			}
		}
		return 0, "", fmt.Errorf("sql: unknown table alias %q", alias)
	}
	ti, ok := pl.colOwner[name]
	if !ok {
		return 0, "", fmt.Errorf("sql: unknown column %q", name)
	}
	if ti == -2 {
		return 0, "", fmt.Errorf("sql: ambiguous column %q", name)
	}
	return ti, name, nil
}

// relName rewrites a written column reference to its relation-level name
// and marks the column used and read, so the table's scan and the top join
// project it.
func (pl *planner) relName(name string) (string, error) {
	ti, col, err := pl.resolve(name)
	if err != nil {
		return "", err
	}
	pl.tables[ti].used[col] = true
	rel := pl.outName(ti, col)
	pl.read[rel] = true
	return rel, nil
}

func (pl *planner) plan() (engine.Node, error) {
	if len(pl.stmt.From) == 0 {
		return nil, fmt.Errorf("sql: FROM required")
	}
	pl.colOwner = make(map[string]int)
	pl.read = make(map[string]bool)
	seen := map[string]bool{}
	for _, ref := range pl.stmt.From {
		ti := len(pl.tables)
		if vt, ok := pl.resolveVirtual(ref.Table); ok {
			pl.tables = append(pl.tables, &tableInfo{ref: ref, vt: vt, schema: vt.Schema(), rows: vt.NumRows(), used: map[string]bool{}})
		} else {
			tbl, ok := pl.cat.Table(ref.Table)
			if !ok {
				return nil, fmt.Errorf("sql: unknown table %q", ref.Table)
			}
			pl.tables = append(pl.tables, &tableInfo{ref: ref, tbl: tbl, schema: tbl.Schema(), rows: tbl.NumRows(), used: map[string]bool{}})
		}
		key := ref.Alias
		if key == "" {
			key = ref.Table
		}
		if seen[key] {
			return nil, fmt.Errorf("sql: duplicate table reference %q (use aliases)", key)
		}
		seen[key] = true
		for _, def := range pl.tables[ti].schema {
			if prev, ok := pl.colOwner[def.Name]; ok && prev != ti {
				pl.colOwner[def.Name] = -2
			} else {
				pl.colOwner[def.Name] = ti
			}
		}
	}

	if pl.stmt.Where != nil {
		if err := pl.classifyWhere(pl.stmt.Where); err != nil {
			return nil, err
		}
	}

	node, err := pl.buildJoinTree()
	if err != nil {
		return nil, err
	}
	for _, res := range pl.residual {
		node = &engine.Filter{Input: node, Pred: res}
	}
	out, err := pl.buildOutput(node)
	if err != nil {
		return nil, err
	}
	if !pl.star {
		pl.narrowScans()
	}
	return out, nil
}

// narrowScans sets each scan's projection to its used columns in schema
// order, so the engine's partial decoder only materializes what the query
// reads. A scan nothing reads (count(*)) keeps one column to carry its row
// count: the first filter column, whose blocks the scan touches anyway,
// else the first schema column. The top join likewise keeps the columns
// read above it, else the first column of its probe side.
func (pl *planner) narrowScans() {
	for _, t := range pl.tables {
		var proj []string
		for _, def := range t.schema {
			if t.used[def.Name] {
				proj = append(proj, def.Name)
			}
		}
		if len(proj) == 0 {
			proj = []string{t.schema[0].Name}
			if cols := expr.And(t.filters...).Columns(nil); len(cols) > 0 {
				proj[0] = cols[0]
			}
		}
		*t.project = proj
	}
	if pl.join == nil {
		return
	}
	proj := make([]string, 0, len(pl.read))
	for name := range pl.read {
		proj = append(proj, name)
	}
	sort.Strings(proj)
	if len(proj) == 0 {
		proj = []string{pl.outName(pl.anchor, (*pl.tables[pl.anchor].project)[0])}
	}
	pl.join.Project = proj
}

// classifyWhere splits the top-level conjunction.
func (pl *planner) classifyWhere(p expr.Pred) error {
	conjuncts := []expr.Pred{p}
	if ap, ok := p.(*expr.AndPred); ok {
		conjuncts = ap.Children
	}
	for _, c := range conjuncts {
		if err := pl.classifyConjunct(c); err != nil {
			return err
		}
	}
	return nil
}

func (pl *planner) classifyConjunct(c expr.Pred) error {
	// Equi-join edge?
	if cc, ok := c.(*expr.CmpColsPred); ok && cc.Op == expr.Eq {
		ta, ca, err := pl.resolve(cc.ColA)
		if err != nil {
			return err
		}
		tb, cb, err := pl.resolve(cc.ColB)
		if err != nil {
			return err
		}
		if ta != tb {
			pl.tables[ta].used[ca] = true
			pl.tables[tb].used[cb] = true
			pl.edges = append(pl.edges, joinEdge{
				a: ta, b: tb,
				aCol: pl.outName(ta, ca), bCol: pl.outName(tb, cb),
			})
			return nil
		}
	}
	// Determine the set of referenced tables.
	cols := c.Columns(nil)
	tset := map[int]bool{}
	for _, col := range cols {
		ti, _, err := pl.resolve(col)
		if err != nil {
			return err
		}
		tset[ti] = true
	}
	if len(tset) == 1 {
		var ti int
		for t := range tset {
			ti = t
		}
		base, err := rewriteToBase(c, func(name string) (string, error) {
			_, col, err := pl.resolve(name)
			return col, err
		})
		if err != nil {
			return err
		}
		pl.tables[ti].filters = append(pl.tables[ti].filters, base)
		return nil
	}
	// Multi-table disjunctions get per-table implied filters factored out
	// and pushed into the scans (classic predicate derivation): for
	// Q19-style ORs of conjunctions, every disjunct's single-table parts
	// OR together into a necessary condition for that table. The exact
	// predicate is still applied as a residual after the join.
	if orPred, isOr := c.(*expr.OrPred); isOr {
		if err := pl.factorDisjunction(orPred); err != nil {
			return err
		}
	}
	// Residual multi-table predicate: rewrite to relation names.
	rel, err := rewriteToBase(c, pl.relName)
	if err != nil {
		return err
	}
	pl.residual = append(pl.residual, rel)
	return nil
}

// factorDisjunction pushes per-table implied filters derived from a
// multi-table OR into the scans. For table t the implied filter is the OR
// over disjuncts of each disjunct's t-only conjuncts; it exists only when
// every disjunct constrains t.
func (pl *planner) factorDisjunction(orPred *expr.OrPred) error {
	for ti := range pl.tables {
		var perDisjunct []expr.Pred
		complete := true
		for _, d := range orPred.Children {
			conjs := []expr.Pred{d}
			if ap, isAnd := d.(*expr.AndPred); isAnd {
				conjs = ap.Children
			}
			var mine []expr.Pred
			for _, cj := range conjs {
				onTable := true
				for _, col := range cj.Columns(nil) {
					owner, _, err := pl.resolve(col)
					if err != nil {
						return err
					}
					if owner != ti {
						onTable = false
						break
					}
				}
				if onTable {
					mine = append(mine, cj)
				}
			}
			if len(mine) == 0 {
				complete = false
				break
			}
			perDisjunct = append(perDisjunct, expr.And(mine...))
		}
		if !complete || len(perDisjunct) == 0 {
			continue
		}
		implied, err := rewriteToBase(expr.Or(perDisjunct...), func(name string) (string, error) {
			_, col, err := pl.resolve(name)
			return col, err
		})
		if err != nil {
			return err
		}
		pl.tables[ti].filters = append(pl.tables[ti].filters, implied)
	}
	return nil
}

// rewriteToBase renames every column reference in the predicate.
func rewriteToBase(p expr.Pred, rename func(string) (string, error)) (expr.Pred, error) {
	switch t := p.(type) {
	case *expr.CmpPred:
		n, err := rename(t.Col)
		if err != nil {
			return nil, err
		}
		return expr.Cmp(n, t.Op, t.Val), nil
	case *expr.CmpColsPred:
		na, err := rename(t.ColA)
		if err != nil {
			return nil, err
		}
		nb, err := rename(t.ColB)
		if err != nil {
			return nil, err
		}
		return expr.CmpCols(na, t.Op, nb), nil
	case *expr.BetweenPred:
		n, err := rename(t.Col)
		if err != nil {
			return nil, err
		}
		return expr.Between(n, t.Lo, t.Hi), nil
	case *expr.InPred:
		n, err := rename(t.Col)
		if err != nil {
			return nil, err
		}
		return expr.In(n, t.Vals...), nil
	case *expr.LikePred:
		n, err := rename(t.Col)
		if err != nil {
			return nil, err
		}
		if t.Negate {
			return expr.NotLike(n, t.Pattern), nil
		}
		return expr.Like(n, t.Pattern), nil
	case *expr.AndPred:
		out := make([]expr.Pred, len(t.Children))
		for i, ch := range t.Children {
			c, err := rewriteToBase(ch, rename)
			if err != nil {
				return nil, err
			}
			out[i] = c
		}
		return expr.And(out...), nil
	case *expr.OrPred:
		out := make([]expr.Pred, len(t.Children))
		for i, ch := range t.Children {
			c, err := rewriteToBase(ch, rename)
			if err != nil {
				return nil, err
			}
			out[i] = c
		}
		return expr.Or(out...), nil
	case *expr.NotPred:
		c, err := rewriteToBase(t.Child, rename)
		if err != nil {
			return nil, err
		}
		return expr.Not(c), nil
	case expr.TruePred, *expr.TruePred:
		return expr.TruePred{}, nil
	}
	return nil, fmt.Errorf("sql: cannot rewrite predicate %T", p)
}

// resolveVirtual maps a (qualified) table name to its virtual provider.
func (pl *planner) resolveVirtual(name string) (engine.VirtualTable, bool) {
	if pl.virt == nil {
		return nil, false
	}
	return pl.virt.VirtualTable(name)
}

// scanFor builds the scan node for table ti; narrowScans fills its
// projection once every name has resolved.
func (pl *planner) scanFor(ti int) engine.Node {
	t := pl.tables[ti]
	if t.vt != nil {
		s := &engine.VirtualScan{
			Source: t.vt,
			Filter: expr.And(t.filters...),
			Alias:  t.ref.Alias,
		}
		t.project = &s.Project
		return s
	}
	s := &engine.Scan{
		Table:  t.ref.Table,
		Filter: expr.And(t.filters...),
		Alias:  t.ref.Alias,
	}
	t.project = &s.Project
	return s
}

// buildJoinTree orders the joins: the largest table is the probe (left)
// side; remaining tables join in by connectivity, preferring smaller build
// sides first.
func (pl *planner) buildJoinTree() (engine.Node, error) {
	n := len(pl.tables)
	if n == 1 {
		return pl.scanFor(0), nil
	}
	// Pick the largest table as the anchor.
	anchor := 0
	for i := 1; i < n; i++ {
		if pl.tables[i].rows > pl.tables[anchor].rows {
			anchor = i
		}
	}
	inTree := make([]bool, n)
	inTree[anchor] = true
	pl.anchor = anchor
	node := pl.scanFor(anchor)
	remaining := n - 1
	edgeUsed := make([]bool, len(pl.edges))
	for remaining > 0 {
		// Pick the connected table with the lowest expected join fanout
		// (rows divided by distinct values of its join column: ~1 for
		// key-foreign-key edges), breaking ties by size. This keeps
		// many-to-many edges (e.g. TPC-H Q5's c_nationkey = s_nationkey)
		// from joining before the key edges that restrict them.
		best := -1
		bestFanout := 0.0
		for ti := 0; ti < n; ti++ {
			if inTree[ti] {
				continue
			}
			fanout := -1.0
			for _, e := range pl.edges {
				var col string
				switch {
				case e.a == ti && inTree[e.b]:
					col = e.aCol
				case e.b == ti && inTree[e.a]:
					col = e.bCol
				default:
					continue
				}
				f := pl.edgeFanout(ti, col)
				if fanout < 0 || f < fanout {
					fanout = f
				}
			}
			if fanout < 0 {
				continue // not connected
			}
			if best < 0 || fanout < bestFanout ||
				(fanout == bestFanout && pl.tables[ti].rows < pl.tables[best].rows) {
				best = ti
				bestFanout = fanout
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("sql: tables are not connected by join predicates (cartesian products unsupported)")
		}
		// Collect all usable edges between the tree and `best`.
		var leftKeys, rightKeys []string
		for ei, e := range pl.edges {
			if edgeUsed[ei] {
				continue
			}
			switch {
			case e.a == best && inTree[e.b]:
				leftKeys = append(leftKeys, e.bCol)
				rightKeys = append(rightKeys, e.aCol)
				edgeUsed[ei] = true
			case e.b == best && inTree[e.a]:
				leftKeys = append(leftKeys, e.aCol)
				rightKeys = append(rightKeys, e.bCol)
				edgeUsed[ei] = true
			}
		}
		pl.join = &engine.Join{
			Left:         node,
			Right:        pl.scanFor(best),
			LeftKeys:     leftKeys,
			RightKeys:    rightKeys,
			Type:         engine.InnerJoin,
			PushSemiJoin: true,
		}
		node = pl.join
		inTree[best] = true
		remaining--
	}
	return node, nil
}

// edgeFanout estimates the average number of rows of table ti matching one
// probe key on the given (relation-level) column.
func (pl *planner) edgeFanout(ti int, relCol string) float64 {
	t := pl.tables[ti]
	if t.tbl == nil {
		// Virtual tables carry no distinct-count statistics; assume key-like.
		return 1
	}
	col := relCol
	if a := t.ref.Alias; a != "" && strings.HasPrefix(relCol, a+".") {
		col = relCol[len(a)+1:]
	}
	ci := t.tbl.ColumnIndex(col)
	if ci < 0 || t.rows == 0 {
		return 1
	}
	d := t.tbl.DistinctCount(ci)
	if d == 0 {
		return 1
	}
	return float64(t.rows) / float64(d)
}

// buildOutput lowers select items, grouping, having, order by and limit on
// top of the joined relation.
func (pl *planner) buildOutput(input engine.Node) (engine.Node, error) {
	stmt := pl.stmt

	// `select *`: emit the joined relation as-is (ORDER BY/LIMIT still
	// apply; grouping and mixing with other items are rejected).
	for _, it := range stmt.Items {
		if !it.Star {
			continue
		}
		if len(stmt.Items) != 1 || len(stmt.GroupBy) > 0 || len(stmt.Having) > 0 {
			return nil, fmt.Errorf("sql: * must be the only select item and cannot be grouped")
		}
		pl.star = true
		node := input
		if len(stmt.OrderBy) > 0 {
			srt := &engine.Sort{Input: node}
			for _, oi := range stmt.OrderBy {
				if oi.Col == "" {
					return nil, fmt.Errorf("sql: ORDER BY with * needs column names")
				}
				n, err := pl.relName(oi.Col)
				if err != nil {
					return nil, err
				}
				srt.Keys = append(srt.Keys, engine.SortKey{Col: n, Desc: oi.Desc})
			}
			node = srt
		}
		if stmt.Limit >= 0 {
			node = &engine.Limit{Input: node, N: stmt.Limit}
		}
		return node, nil
	}

	// Rewrite column references in select scalars to relation names, and
	// collect aggregate specs (deduplicated by canonical name).
	aggByName := map[string]*engine.AggSpec{}
	var aggOrder []string
	registerAgg := func(call *AggCall) error {
		name := call.Name()
		if _, ok := aggByName[name]; ok {
			return nil
		}
		spec := &engine.AggSpec{Func: call.Func, Name: name}
		if call.Arg != nil {
			arg, err := rewriteScalar(call.Arg, pl.relName)
			if err != nil {
				return err
			}
			spec.Arg = arg
		}
		aggByName[name] = spec
		aggOrder = append(aggOrder, name)
		return nil
	}

	hasAggs := false
	type outItem struct {
		scalar expr.Scalar // over the (agg) output relation
		name   string
	}
	var outItems []outItem
	aggNames := map[string]bool{}
	for _, it := range stmt.Items {
		for _, call := range it.Aggs {
			hasAggs = true
			if err := registerAgg(call); err != nil {
				return nil, err
			}
			aggNames[call.Name()] = true
		}
	}
	grouped := hasAggs || len(stmt.GroupBy) > 0

	// Group-by expressions rewritten to relation names. Computed group
	// scalars (e.g. extract(year from ...)) are materialized by a
	// pre-aggregation projection and grouped by their canonical key.
	type groupItem struct {
		scalar expr.Scalar
		name   string
	}
	var groupItems []groupItem
	needPre := false
	for _, g := range stmt.GroupBy {
		gs, err := rewriteScalar(g, pl.relName)
		if err != nil {
			return nil, err
		}
		name := gs.Key()
		if cr, ok := gs.(*expr.ColRef); ok {
			name = cr.Name
		} else {
			needPre = true
		}
		groupItems = append(groupItems, groupItem{scalar: gs, name: name})
	}
	var groupCols []string
	groupNames := map[string]bool{}
	for _, gi := range groupItems {
		groupCols = append(groupCols, gi.name)
		groupNames[gi.name] = true
	}

	// HAVING: register hidden aggregates.
	var havingPreds []expr.Pred
	for _, h := range stmt.Having {
		if h.Agg != nil {
			if err := registerAgg(h.Agg); err != nil {
				return nil, err
			}
			havingPreds = append(havingPreds, expr.Cmp(h.Agg.Name(), h.Op, h.Val))
		} else {
			n, err := pl.relName(h.Col)
			if err != nil {
				return nil, err
			}
			if !groupNames[n] {
				return nil, fmt.Errorf("sql: HAVING column %q is not a group column", h.Col)
			}
			havingPreds = append(havingPreds, expr.Cmp(n, h.Op, h.Val))
		}
	}

	node := input
	if grouped {
		if needPre {
			// Materialize computed group scalars plus every column the
			// aggregate arguments read.
			pre := &engine.Project{Input: node}
			added := map[string]bool{}
			for _, gi := range groupItems {
				if !added[gi.name] {
					pre.Exprs = append(pre.Exprs, engine.NamedScalar{Expr: gi.scalar, Name: gi.name})
					added[gi.name] = true
				}
			}
			for _, name := range aggOrder {
				spec := aggByName[name]
				if spec.Arg == nil {
					continue
				}
				for _, c := range spec.Arg.ScalarColumns(nil) {
					if !added[c] {
						pre.Exprs = append(pre.Exprs, engine.NamedScalar{Expr: expr.Col(c), Name: c})
						added[c] = true
					}
				}
			}
			node = pre
		}
		agg := &engine.Agg{Input: node, GroupBy: groupCols}
		for _, name := range aggOrder {
			agg.Aggs = append(agg.Aggs, *aggByName[name])
		}
		node = agg
	}
	for _, hp := range havingPreds {
		node = &engine.Filter{Input: node, Pred: hp}
	}

	// Output projection. Over a grouped relation the available columns are
	// the group columns (relation names) plus aggregate canonical names; the
	// select scalars reference them directly. Over an ungrouped relation the
	// scalars reference relation column names.
	for i, it := range stmt.Items {
		name := it.Alias
		var sc expr.Scalar
		var err error
		if grouped {
			// Aggregate references are already canonical; rewrite the
			// non-aggregate column references, then fold subtrees matching a
			// computed group expression into references to its output column.
			sc, err = rewriteScalar(it.Scalar, func(col string) (string, error) {
				if aggNames[col] || aggByName[col] != nil {
					return col, nil
				}
				return pl.relName(col)
			})
			if err == nil {
				sc = replaceGroupRefs(sc, groupNames)
				for _, c := range sc.ScalarColumns(nil) {
					if !groupNames[c] && aggByName[c] == nil {
						return nil, fmt.Errorf("sql: column %q must be grouped or inside an aggregate", c)
					}
				}
			}
		} else {
			sc, err = rewriteScalar(it.Scalar, pl.relName)
		}
		if err != nil {
			return nil, err
		}
		if name == "" {
			if cr, ok := sc.(*expr.ColRef); ok {
				name = cr.Name
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		outItems = append(outItems, outItem{scalar: sc, name: name})
	}

	proj := &engine.Project{Input: node}
	for _, it := range outItems {
		proj.Exprs = append(proj.Exprs, engine.NamedScalar{Expr: it.scalar, Name: it.name})
	}
	node = proj

	// ORDER BY over the projected output.
	if len(stmt.OrderBy) > 0 {
		srt := &engine.Sort{Input: node}
		for _, oi := range stmt.OrderBy {
			var col string
			switch {
			case oi.Position > 0:
				if oi.Position > len(outItems) {
					return nil, fmt.Errorf("sql: ORDER BY position %d out of range", oi.Position)
				}
				col = outItems[oi.Position-1].name
			case oi.Agg != nil:
				// Match by canonical name against a select alias or output.
				col = oi.Agg.Name()
				found := false
				for _, it := range outItems {
					if it.name == col {
						found = true
						break
					}
					if cr, ok := it.scalar.(*expr.ColRef); ok && cr.Name == col {
						col = it.name
						found = true
						break
					}
				}
				if !found {
					return nil, fmt.Errorf("sql: ORDER BY aggregate %s not in select list", col)
				}
			default:
				// A select alias or a column name.
				col = oi.Col
				matched := false
				for _, it := range outItems {
					if it.name == col {
						matched = true
						break
					}
				}
				if !matched {
					n, err := pl.relName(oi.Col)
					if err != nil {
						return nil, fmt.Errorf("sql: ORDER BY column %q not in output", oi.Col)
					}
					for _, it := range outItems {
						if it.name == n {
							col = n
							matched = true
							break
						}
						if cr, ok := it.scalar.(*expr.ColRef); ok && cr.Name == n {
							col = it.name
							matched = true
							break
						}
					}
					if !matched {
						return nil, fmt.Errorf("sql: ORDER BY column %q not in output", oi.Col)
					}
				}
			}
			srt.Keys = append(srt.Keys, engine.SortKey{Col: col, Desc: oi.Desc})
		}
		node = srt
	}
	if stmt.Limit >= 0 {
		node = &engine.Limit{Input: node, N: stmt.Limit}
	}
	return node, nil
}

// rewriteScalar renames column references inside a scalar expression.
func rewriteScalar(s expr.Scalar, rename func(string) (string, error)) (expr.Scalar, error) {
	switch t := s.(type) {
	case *expr.ColRef:
		n, err := rename(t.Name)
		if err != nil {
			return nil, err
		}
		return expr.Col(n), nil
	case *expr.ConstScalar:
		return t, nil
	case *expr.ArithScalar:
		l, err := rewriteScalar(t.L, rename)
		if err != nil {
			return nil, err
		}
		r, err := rewriteScalar(t.R, rename)
		if err != nil {
			return nil, err
		}
		return expr.Arith(l, t.Op, r), nil
	case *expr.YearScalar:
		a, err := rewriteScalar(t.Arg, rename)
		if err != nil {
			return nil, err
		}
		return expr.Year(a), nil
	case *expr.CaseScalar:
		cond, err := rewriteToBase(t.Cond, rename)
		if err != nil {
			return nil, err
		}
		then, err := rewriteScalar(t.Then, rename)
		if err != nil {
			return nil, err
		}
		els, err := rewriteScalar(t.Else, rename)
		if err != nil {
			return nil, err
		}
		return expr.Case(cond, then, els), nil
	}
	return nil, fmt.Errorf("sql: cannot rewrite scalar %T", s)
}

// replaceGroupRefs folds any subtree whose canonical key equals a group
// expression's output column into a reference to that column.
func replaceGroupRefs(s expr.Scalar, groupNames map[string]bool) expr.Scalar {
	if groupNames[s.Key()] {
		return expr.Col(s.Key())
	}
	switch t := s.(type) {
	case *expr.ArithScalar:
		return expr.Arith(replaceGroupRefs(t.L, groupNames), t.Op, replaceGroupRefs(t.R, groupNames))
	case *expr.YearScalar:
		return expr.Year(replaceGroupRefs(t.Arg, groupNames))
	case *expr.CaseScalar:
		return expr.Case(t.Cond, replaceGroupRefs(t.Then, groupNames), replaceGroupRefs(t.Else, groupNames))
	}
	return s
}

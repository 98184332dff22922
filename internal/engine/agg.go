package engine

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/storage"
)

// aggState accumulates one aggregate for one group.
type aggState struct {
	count    int64
	sum      float64
	min, max float64
	minI     int64
	maxI     int64
	distinct map[int64]struct{}
	seen     bool
}

// boundAgg is one aggregate bound against the input relation. The bound
// scalar tree is shared read-only across workers; each worker evaluates it
// into its own scratch chunk.
type boundAgg struct {
	spec     AggSpec
	bs       expr.BoundScalar // nil when no evaluation is needed (count)
	evalInt  bool             // accumulate from the int chunk
	bitsFrom bool             // count_distinct over floats: exact bit identity
	intArg   bool             // min/max preserve integer typing
	outTyp   storage.ColumnType
	dict     *storage.Dict
}

// bindAggs binds the aggregate specs against the input relation.
func bindAggs(specs []AggSpec, in *Relation) ([]*boundAgg, error) {
	baggs := make([]*boundAgg, len(specs))
	for i, spec := range specs {
		ba := &boundAgg{spec: spec, outTyp: storage.Float64}
		switch spec.Func {
		case AggCount:
			// count ignores its argument's values (this engine has no NULLs),
			// so it never evaluates one.
			ba.outTyp = storage.Int64
		case AggCountDistinct:
			bs, err := expr.BindScalar(spec.Arg, in)
			if err != nil {
				return nil, err
			}
			ba.bs, ba.outTyp, ba.evalInt = bs, storage.Int64, true
			ba.bitsFrom = !bs.Out().IsInt()
		case AggMin, AggMax:
			bs, err := expr.BindScalar(spec.Arg, in)
			if err != nil {
				return nil, err
			}
			ba.bs = bs
			if bs.Out().IsInt() {
				ba.intArg, ba.evalInt = true, true
				ba.outTyp = bs.Out()
				if cr, ok := spec.Arg.(*expr.ColRef); ok {
					if c := in.ColByName(cr.Name); c != nil {
						ba.dict = c.Dict
					}
				}
			}
		default: // sum, avg
			bs, err := expr.BindScalar(spec.Arg, in)
			if err != nil {
				return nil, err
			}
			ba.bs = bs
		}
		baggs[i] = ba
	}
	return baggs, nil
}

// evalChunk evaluates ba's argument for the selected rows into the worker's
// scratch vectors. Exactly one of the returned chunks is meaningful
// (position-indexed alongside sel); both are nil when ba needs no values.
func evalChunk(ba *boundAgg, ctx *expr.BlockCtx, sel []int, scr *morselScratch) ([]int64, []float64) {
	if ba.bs == nil {
		return nil, nil
	}
	iv, fv := scr.vecs(len(sel))
	switch {
	case ba.evalInt && !ba.bitsFrom:
		ba.bs.EvalI(ctx, sel, iv)
		return iv, nil
	case ba.evalInt:
		ba.bs.EvalF(ctx, sel, fv)
		for i, v := range fv {
			iv[i] = int64(math.Float64bits(v))
		}
		return iv, nil
	default:
		ba.bs.EvalF(ctx, sel, fv)
		return nil, fv
	}
}

// accumulate folds one evaluated chunk into the group states. gidx[i] is
// the group index of sel position i; states is group-major with nA states
// per group, ai selecting this aggregate's slot. The function switch stays
// outside the row loop.
func accumulate(fn AggFunc, intArg bool, states []aggState, nA, ai int, gidx []int32, iv []int64, fv []float64) {
	switch fn {
	case AggCount:
		for _, g := range gidx {
			states[int(g)*nA+ai].count++
		}
	case AggCountDistinct:
		for i, g := range gidx {
			st := &states[int(g)*nA+ai]
			if st.distinct == nil {
				st.distinct = make(map[int64]struct{})
			}
			st.distinct[iv[i]] = struct{}{}
		}
	case AggSum, AggAvg:
		for i, g := range gidx {
			st := &states[int(g)*nA+ai]
			st.sum += fv[i]
			st.count++
		}
	case AggMin:
		if intArg {
			for i, g := range gidx {
				st := &states[int(g)*nA+ai]
				if !st.seen || iv[i] < st.minI {
					st.minI = iv[i]
				}
				st.seen = true
			}
			return
		}
		for i, g := range gidx {
			st := &states[int(g)*nA+ai]
			if !st.seen || fv[i] < st.min {
				st.min = fv[i]
			}
			st.seen = true
		}
	case AggMax:
		if intArg {
			for i, g := range gidx {
				st := &states[int(g)*nA+ai]
				if !st.seen || iv[i] > st.maxI {
					st.maxI = iv[i]
				}
				st.seen = true
			}
			return
		}
		for i, g := range gidx {
			st := &states[int(g)*nA+ai]
			if !st.seen || fv[i] > st.max {
				st.max = fv[i]
			}
			st.seen = true
		}
	}
}

// mergeState folds src into dst for one aggregate. Callers merge in morsel
// index order, so float sums associate identically for every worker count.
func mergeState(dst, src *aggState, fn AggFunc, intArg bool) {
	switch fn {
	case AggCount:
		dst.count += src.count
	case AggCountDistinct:
		if dst.distinct == nil {
			dst.distinct = src.distinct
			return
		}
		for k := range src.distinct {
			dst.distinct[k] = struct{}{}
		}
	case AggSum, AggAvg:
		dst.sum += src.sum
		dst.count += src.count
	case AggMin:
		if !src.seen {
			return
		}
		if intArg {
			if !dst.seen || src.minI < dst.minI {
				dst.minI = src.minI
			}
		} else if !dst.seen || src.min < dst.min {
			dst.min = src.min
		}
		dst.seen = true
	case AggMax:
		if !src.seen {
			return
		}
		if intArg {
			if !dst.seen || src.maxI > dst.maxI {
				dst.maxI = src.maxI
			}
		} else if !dst.seen || src.max > dst.max {
			dst.max = src.max
		}
		dst.seen = true
	}
}

// aggTable accumulates group states for one hash partition (the whole input
// when running single-partition). The key table gives groups dense indexes
// in first-sight order; states is group-major with nA slots per group.
type aggTable struct {
	nA       int
	keys     keyCols
	groups   keyTable
	firstRow []int32
	states   []aggState
}

func newAggTable(keys keyCols, nA int) *aggTable {
	return &aggTable{nA: nA, keys: keys, groups: newKeyTable(len(keys), 0)}
}

// groupOf returns the dense group index of row, creating the group on first
// sight.
func (t *aggTable) groupOf(row int) int32 {
	gi, added := t.groups.findOrAdd(t.keys, row, t.keys.hash(row))
	if added {
		if len(t.firstRow) == cap(t.firstRow) {
			// Double, like the key table: append's smaller steps would copy
			// the states about five times over on a many-group input.
			n := max(len(t.firstRow), 16)
			t.firstRow = slices.Grow(t.firstRow, n)
			t.states = slices.Grow(t.states, n*t.nA)
		}
		t.firstRow = append(t.firstRow, int32(row))
		for i := 0; i < t.nA; i++ {
			t.states = append(t.states, aggState{})
		}
	}
	return gi
}

// processChunk folds one chunk of selected rows into the table: group
// lookup into the scratch group-index vector, then one accumulate pass per
// aggregate over the scratch-evaluated argument chunk.
func processChunk(t *aggTable, baggs []*boundAgg, ctx *expr.BlockCtx, sel []int, scr *morselScratch) {
	gidx := scr.groupIdx(len(sel))
	for i, row := range sel {
		gidx[i] = t.groupOf(row)
	}
	for ai, ba := range baggs {
		iv, fv := evalChunk(ba, ctx, sel, scr)
		accumulate(ba.spec.Func, ba.intArg, t.states, t.nA, ai, gidx, iv, fv)
	}
}

// finalGroup is one output group: its representative row (for the group-by
// column values; -1 for the global aggregate) and its nA states.
type finalGroup struct {
	first  int32
	states []aggState
}

// Execute performs hash aggregation, morsel-parallel under
// ExecCtx.MaxWorkers. Filter nodes directly under the input stream
// as per-morsel selection vectors. Grouped aggregation hash-partitions by
// group key and accumulates each partition's rows in global row order;
// global aggregation accumulates per-morsel partial states merged in morsel
// order — both make parallel and Serial plans bit-identical for any worker
// count.
func (a *Agg) Execute(ec *ExecCtx) (rel *Relation, err error) {
	sp := beginNodeSpan(ec, a)
	defer func() { endNodeSpan(sp, rel, err) }()
	if err = ec.Cancelled(); err != nil {
		return nil, err
	}
	inNode, fusedPreds := fusedFilterInput(a.Input)
	in, err := inNode.Execute(ec)
	if err != nil {
		return nil, err
	}
	setRowsIn(sp, in)

	groupCols, groupKeys, err := relKeyCols(in, a.GroupBy, "group-by column")
	if err != nil {
		return nil, err
	}
	baggs, err := bindAggs(a.Aggs, in)
	if err != nil {
		return nil, err
	}
	bounds, err := bindFused(fusedPreds, in)
	if err != nil {
		return nil, err
	}
	ctx := in.blockCtx()
	if len(bounds) > 0 && sp.Active() {
		sp.SetInt("filters.fused", int64(len(bounds)))
	}

	n := in.NumRows()
	nA := len(baggs)
	nm := numMorsels(n)
	pa := parAccounting{workers: ec.workers(n), morsels: nm}

	var groups []finalGroup
	if len(groupCols) == 0 {
		groups, err = a.runGlobal(ec, baggs, bounds, ctx, n, nm, &pa)
	} else if pa.workers <= 1 {
		groups, err = a.runGroupedSerial(ec, groupKeys, baggs, bounds, ctx, n, &pa)
	} else {
		groups, err = a.runGroupedParallel(ec, groupKeys, baggs, bounds, ctx, n, nm, &pa)
	}
	if err != nil {
		return nil, err
	}
	pa.finish(ec, sp)

	// Assemble output: group columns first (representative-row values), then
	// aggregates. Groups are ordered by first occurrence, matching the
	// serial single-pass insertion order.
	out := make([]RelCol, 0, len(groupCols)+nA)
	for gi, c := range groupCols {
		dst := RelCol{Name: a.GroupBy[gi], Type: c.Type, Dict: c.Dict}
		if c.Type == storage.Float64 {
			dst.Floats = make([]float64, len(groups))
			for k, g := range groups {
				dst.Floats[k] = c.Floats[g.first]
			}
		} else {
			dst.Ints = make([]int64, len(groups))
			for k, g := range groups {
				dst.Ints[k] = c.Ints[g.first]
			}
		}
		out = append(out, dst)
	}
	for i, ba := range baggs {
		name := ba.spec.Name
		if name == "" {
			name = fmt.Sprintf("%s_%d", ba.spec.Func, i)
		}
		dst := RelCol{Name: name, Type: ba.outTyp, Dict: ba.dict}
		if ba.outTyp == storage.Float64 {
			dst.Floats = make([]float64, len(groups))
			for k, g := range groups {
				st := &g.states[i]
				switch ba.spec.Func {
				case AggSum:
					dst.Floats[k] = st.sum
				case AggAvg:
					if st.count > 0 {
						dst.Floats[k] = st.sum / float64(st.count)
					}
				case AggMin:
					dst.Floats[k] = st.min
				case AggMax:
					dst.Floats[k] = st.max
				}
			}
		} else {
			dst.Ints = make([]int64, len(groups))
			for k, g := range groups {
				st := &g.states[i]
				switch ba.spec.Func {
				case AggCount:
					dst.Ints[k] = st.count
				case AggCountDistinct:
					dst.Ints[k] = int64(len(st.distinct))
				case AggMin:
					dst.Ints[k] = st.minI
				case AggMax:
					dst.Ints[k] = st.maxI
				}
			}
		}
		out = append(out, dst)
	}
	return NewRelation(out)
}

// runGlobal computes the single global aggregate row: per-morsel partial
// states, merged in morsel index order. Every worker count — including one —
// runs the same partial/merge structure, so the result is identical for any
// degree of parallelism.
func (a *Agg) runGlobal(ec *ExecCtx, baggs []*boundAgg, bounds []expr.Bound, ctx *expr.BlockCtx, n, nm int, pa *parAccounting) ([]finalGroup, error) {
	nA := len(baggs)
	partials := make([]aggState, nm*nA)
	cur := &morselCursor{rows: n}
	err := pa.run(pa.workers, func() error {
		scr := acquireMorselScratch()
		defer scr.release()
		return forEachMorsel(ec, cur, func(m, lo, hi int) error {
			sel := morselSel(scr, ctx, bounds, lo, hi)
			if len(sel) == 0 {
				return nil
			}
			gidx := scr.groupIdx(len(sel))
			for i := range gidx {
				gidx[i] = 0
			}
			states := partials[m*nA : (m+1)*nA]
			for ai, ba := range baggs {
				iv, fv := evalChunk(ba, ctx, sel, scr)
				accumulate(ba.spec.Func, ba.intArg, states, nA, ai, gidx, iv, fv)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	final := make([]aggState, nA)
	for m := 0; m < nm; m++ {
		for ai, ba := range baggs {
			mergeState(&final[ai], &partials[m*nA+ai], ba.spec.Func, ba.intArg)
		}
	}
	return []finalGroup{{first: -1, states: final}}, nil
}

// runGroupedSerial is the single-worker grouped path: one table, one
// streaming pass in row order.
func (a *Agg) runGroupedSerial(ec *ExecCtx, keys keyCols, baggs []*boundAgg, bounds []expr.Bound, ctx *expr.BlockCtx, n int, pa *parAccounting) ([]finalGroup, error) {
	t := newAggTable(keys, len(baggs))
	cur := &morselCursor{rows: n}
	err := pa.run(1, func() error {
		scr := acquireMorselScratch()
		defer scr.release()
		return forEachMorsel(ec, cur, func(_, lo, hi int) error {
			sel := morselSel(scr, ctx, bounds, lo, hi)
			if len(sel) > 0 {
				processChunk(t, baggs, ctx, sel, scr)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return collectGroups([]*aggTable{t}, len(baggs)), nil
}

// runGroupedParallel is the partitioned grouped path. Phase 1 scatters each
// morsel's selected rows by group-hash partition (a per-morsel counting
// sort into the morsel's own segment of rowBuf, preserving row order).
// Phase 2 workers claim partitions and fold each partition's rows iterating
// morsels in ascending order — every group therefore accumulates its rows
// in global row order, exactly like the serial pass.
func (a *Agg) runGroupedParallel(ec *ExecCtx, keys keyCols, baggs []*boundAgg, bounds []expr.Bound, ctx *expr.BlockCtx, n, nm int, pa *parAccounting) ([]finalGroup, error) {
	nA := len(baggs)
	nP := partitionsFor(pa.workers)
	pshift := partShift(nP)
	rowBuf := make([]int32, n)        // morsel m owns rowBuf[m*morselSize : ...]
	moffs := make([]int32, nm*(nP+1)) // per-morsel partition offsets into its segment

	cur := &morselCursor{rows: n}
	err := pa.run(pa.workers, func() error {
		scr := acquireMorselScratch()
		defer scr.release()
		return forEachMorsel(ec, cur, func(m, lo, hi int) error {
			sel := morselSel(scr, ctx, bounds, lo, hi)
			pids := scr.partIds(len(sel))
			count, cursor := scr.partCounters(nP)
			for i, row := range sel {
				p := uint8(keys.hash(row) >> pshift)
				pids[i] = p
				count[p]++
			}
			offs := moffs[m*(nP+1) : (m+1)*(nP+1)]
			offs[0] = 0
			for p := 0; p < nP; p++ {
				offs[p+1] = offs[p] + count[p]
				cursor[p] = offs[p]
			}
			seg := rowBuf[lo:hi]
			for i, row := range sel {
				p := pids[i]
				seg[cursor[p]] = int32(row)
				cursor[p]++
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	tables := make([]*aggTable, nP)
	var pcur atomic.Int64
	err = pa.run(pa.workers, func() error {
		scr := acquireMorselScratch()
		defer scr.release()
		for {
			p := int(pcur.Add(1)) - 1
			if p >= nP {
				return nil
			}
			t := newAggTable(keys, nA)
			tables[p] = t
			for m := 0; m < nm; m++ {
				if m&15 == 0 {
					if err := ec.Cancelled(); err != nil {
						return err
					}
				}
				offs := moffs[m*(nP+1):]
				s, e := offs[p], offs[p+1]
				if s == e {
					continue
				}
				seg := rowBuf[m*morselSize+int(s) : m*morselSize+int(e)]
				sel := scr.selFromInt32(seg)
				processChunk(t, baggs, ctx, sel, scr)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return collectGroups(tables, nA), nil
}

// collectGroups merges partition tables into output groups ordered by first
// occurrence. Each group lives in exactly one partition, whose table already
// lists its groups in first-occurrence order, so a k-way merge on the first
// row reproduces the serial order without a sort.
func collectGroups(tables []*aggTable, nA int) []finalGroup {
	total := 0
	for _, t := range tables {
		total += len(t.firstRow)
	}
	groups := make([]finalGroup, 0, total)
	next := make([]int, len(tables))
	for len(groups) < total {
		best := -1
		for p, t := range tables {
			if g := next[p]; g < len(t.firstRow) && (best < 0 || t.firstRow[g] < tables[best].firstRow[next[best]]) {
				best = p
			}
		}
		t, g := tables[best], next[best]
		groups = append(groups, finalGroup{first: t.firstRow[g], states: t.states[g*nA : (g+1)*nA]})
		next[best]++
	}
	return groups
}

package engine

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/obs"
	"github.com/predcache/predcache/internal/storage"
)

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

// bindAggs binds the aggregate specs against the input's columns.
func bindAggs(specs []AggSpec, in expr.Source) ([]*boundAgg, error) {
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
					if ci := in.ColumnIndex(cr.Name); ci >= 0 {
						ba.dict = in.Dict(ci)
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

// aggCol is one aggregate's states, one per group (one per morsel for a
// global aggregate's partials), holding only what its function reads: a
// count or a sum one word, an avg both, a min or max its value and whether
// it has one, a count_distinct its set.
type aggCol struct {
	fn     AggFunc
	intArg bool // min/max over an integer argument
	ints   []int64
	floats []float64
	seen   []bool
	sets   []map[int64]struct{}
}

func newAggCols(baggs []*boundAgg) []aggCol {
	cols := make([]aggCol, len(baggs))
	for i, ba := range baggs {
		cols[i] = aggCol{fn: ba.spec.Func, intArg: ba.intArg}
	}
	return cols
}

// resize sets the number of states to n, new states zero, giving each
// array the function uses a capacity of at least c.
func (s *aggCol) resize(n, c int) {
	switch s.fn {
	case AggCount:
		s.ints = resized(s.ints, n, c)
	case AggCountDistinct:
		s.sets = resized(s.sets, n, c)
	case AggSum:
		s.floats = resized(s.floats, n, c)
	case AggAvg:
		s.floats = resized(s.floats, n, c)
		s.ints = resized(s.ints, n, c)
	default: // min, max
		s.seen = resized(s.seen, n, c)
		if s.intArg {
			s.ints = resized(s.ints, n, c)
		} else {
			s.floats = resized(s.floats, n, c)
		}
	}
}

// resized returns v with length n and capacity at least c. The values
// past len(v) are zero: state arrays never shrink.
func resized[T any](v []T, n, c int) []T {
	if cap(v) < c {
		v = append(make([]T, 0, c), v...)
	}
	return v[:n]
}

// accumulate folds one evaluated chunk into s: gidx[i] is the state of
// selected row i, iv or fv its argument value. The function switch stays
// outside the row loop.
func accumulate(s *aggCol, gidx []int32, iv []int64, fv []float64) {
	switch s.fn {
	case AggCount:
		cnt := s.ints
		for _, g := range gidx {
			cnt[g]++
		}
	case AggCountDistinct:
		for i, g := range gidx {
			set := s.sets[g]
			if set == nil {
				set = make(map[int64]struct{})
				s.sets[g] = set
			}
			set[iv[i]] = struct{}{}
		}
	case AggSum:
		sum := s.floats
		for i, g := range gidx {
			sum[g] += fv[i]
		}
	case AggAvg:
		sum, cnt := s.floats, s.ints
		for i, g := range gidx {
			sum[g] += fv[i]
			cnt[g]++
		}
	case AggMin:
		seen := s.seen
		if s.intArg {
			min := s.ints
			for i, g := range gidx {
				if !seen[g] || iv[i] < min[g] {
					min[g] = iv[i]
				}
				seen[g] = true
			}
			return
		}
		min := s.floats
		for i, g := range gidx {
			if !seen[g] || fv[i] < min[g] {
				min[g] = fv[i]
			}
			seen[g] = true
		}
	case AggMax:
		seen := s.seen
		if s.intArg {
			max := s.ints
			for i, g := range gidx {
				if !seen[g] || iv[i] > max[g] {
					max[g] = iv[i]
				}
				seen[g] = true
			}
			return
		}
		max := s.floats
		for i, g := range gidx {
			if !seen[g] || fv[i] > max[g] {
				max[g] = fv[i]
			}
			seen[g] = true
		}
	}
}

// merge folds src's state i into s's state d. Callers merge in morsel
// index order, so float sums associate identically for every worker count.
func (s *aggCol) merge(d int, src *aggCol, i int) {
	switch s.fn {
	case AggCount:
		s.ints[d] += src.ints[i]
	case AggCountDistinct:
		if s.sets[d] == nil {
			s.sets[d] = src.sets[i]
			return
		}
		for k := range src.sets[i] {
			s.sets[d][k] = struct{}{}
		}
	case AggSum:
		s.floats[d] += src.floats[i]
	case AggAvg:
		s.floats[d] += src.floats[i]
		s.ints[d] += src.ints[i]
	default: // min, max
		if !src.seen[i] {
			return
		}
		switch {
		case s.intArg && s.fn == AggMin:
			if !s.seen[d] || src.ints[i] < s.ints[d] {
				s.ints[d] = src.ints[i]
			}
		case s.intArg:
			if !s.seen[d] || src.ints[i] > s.ints[d] {
				s.ints[d] = src.ints[i]
			}
		case s.fn == AggMin:
			if !s.seen[d] || src.floats[i] < s.floats[d] {
				s.floats[d] = src.floats[i]
			}
		default:
			if !s.seen[d] || src.floats[i] > s.floats[d] {
				s.floats[d] = src.floats[i]
			}
		}
		s.seen[d] = true
	}
}

// result writes state g's final value to row k of dst.
func (s *aggCol) result(dst *RelCol, k, g int) {
	switch s.fn {
	case AggCount:
		dst.Ints[k] = s.ints[g]
	case AggCountDistinct:
		dst.Ints[k] = int64(len(s.sets[g]))
	case AggSum:
		dst.Floats[k] = s.floats[g]
	case AggAvg:
		if s.ints[g] > 0 {
			dst.Floats[k] = s.floats[g] / float64(s.ints[g])
		}
	default: // min, max
		if s.intArg {
			dst.Ints[k] = s.ints[g]
		} else {
			dst.Floats[k] = s.floats[g]
		}
	}
}

// aggTable accumulates group states for one hash partition (the whole input
// when running single-partition). The key table gives groups dense indexes
// in first-sight order; firstRow holds each group's first global position
// and states one column per aggregate.
type aggTable struct {
	groups   keyTable
	firstRow []int32
	states   []aggCol
}

// newAggTable returns a table whose keys, firstRow and states hold n
// groups before any of them grows.
func newAggTable(width, n int, baggs []*boundAgg) *aggTable {
	return &aggTable{groups: newKeyTable(width, n), firstRow: make([]int32, 0, n), states: newAggCols(baggs)}
}

// tableSize is what each of parts partition tables is sized for when the
// last run wrote groups: an even share plus a sixteenth and 16 more (what
// an unsized table starts with), so neither a hash split's imbalance nor a
// few groups more than last time grow it. Without a count it is 0.
func tableSize(groups, parts int) int {
	if groups == 0 {
		return 0
	}
	share := groups / parts
	return share + share/16 + 16
}

// groupOf returns the dense group index of row of k, creating the group on
// first sight with first as its global position.
func (t *aggTable) groupOf(k keyCols, row int, first int32) int32 {
	gi, added := t.groups.findOrAdd(k, row, k.hash(row))
	if added {
		if len(t.firstRow) == cap(t.firstRow) {
			// Double exactly: append's smaller steps would copy the states
			// about five times over on a many-group input. Every state
			// column takes the capacity firstRow got, so none re-grows on
			// its own.
			t.firstRow = append(make([]int32, 0, max(2*len(t.firstRow), 16)), t.firstRow...)
		}
		t.firstRow = append(t.firstRow, first)
		for i := range t.states {
			t.states[i].resize(len(t.firstRow), cap(t.firstRow))
		}
	}
	return gi
}

// processChunk folds one chunk of selected rows into the table: group
// lookup into the scratch group-index vector, then one accumulate pass per
// aggregate over the scratch-evaluated argument chunk. firsts[i] is the
// global position of sel[i]; nil means sel holds global positions.
func processChunk(t *aggTable, baggs []*boundAgg, ctx *expr.BlockCtx, keys keyCols, sel []int, firsts []int32, scr *morselScratch) {
	gidx := scr.groupIdx(len(sel))
	if firsts == nil {
		for i, row := range sel {
			gidx[i] = t.groupOf(keys, row, int32(row))
		}
	} else {
		for i, row := range sel {
			gidx[i] = t.groupOf(keys, row, firsts[i])
		}
	}
	for ai, ba := range baggs {
		iv, fv := evalChunk(ba, ctx, sel, scr)
		accumulate(&t.states[ai], gidx, iv, fv)
	}
}

// groupInput is what grouped aggregation reads, one morsel at a time: a
// materialized relation, or the tuples leaving a join chain. Morsel m's
// rows take slots base(m) up to base(m+1) of the input's row space.
type groupInput interface {
	morsels() int
	base(m int) int
	// rows prepares morsel m's rows in scr, all of them when seg is nil,
	// else the ones seg lists by their sel values (as a nil seg returned
	// them), in seg's order. It returns the context and key columns to
	// read them with, the selection, and each selected row's global
	// position (nil when sel holds it). With keysOnly, only the key columns
	// need to be readable.
	rows(scr *morselScratch, m int, seg []int32, keysOnly bool) (*expr.BlockCtx, keyCols, []int, []int32)
}

// relInput is a materialized relation under fused filters; morsels are
// its fixed 4096-row spans.
type relInput struct {
	rel    *Relation
	keys   keyCols
	bounds []expr.Bound
}

func (r *relInput) morsels() int   { return numMorsels(r.rel.n) }
func (r *relInput) base(m int) int { return min(m*morselSize, r.rel.n) }

func (r *relInput) rows(scr *morselScratch, m int, seg []int32, _ bool) (*expr.BlockCtx, keyCols, []int, []int32) {
	ctx := scr.relCtx(r.rel)
	if seg != nil {
		return ctx, r.keys, scr.selFromInt32(seg), nil
	}
	return ctx, r.keys, morselSel(scr, ctx, r.bounds, r.base(m), r.base(m+1)), nil
}

// chainInput is the tuples leaving a join chain's top, read in place; its
// morsels are the probe morsels.
type chainInput struct {
	tuples [][][]int32 // per probe morsel, a row list per source
	offs   []int       // morsel m's tuples are output positions offs[m] up to offs[m+1]
	cols   []chainCol  // the chain's output columns
	keys   []int       // the group columns, indexes into cols
	read   []int       // every column keys and aggregate arguments read, ascending
}

func (in *chainInput) morsels() int   { return len(in.tuples) }
func (in *chainInput) base(m int) int { return in.offs[m] }

// rows gathers the columns read into the worker's scratch, one vector per
// column over the tuples, each value from its source row (0 for an
// unmatched left outer row, as gatherRows writes it), and selects every
// position of them. seg lists tuples by their position in the morsel.
func (in *chainInput) rows(scr *morselScratch, m int, seg []int32, keysOnly bool) (*expr.BlockCtx, keyCols, []int, []int32) {
	n := in.offs[m+1] - in.offs[m]
	src := in.tuples[m]
	if n == 0 {
		return nil, nil, nil, nil
	}
	if seg != nil {
		n = len(seg)
		src = grow(scr.srcRows[:0], len(in.tuples[m]))
		scr.srcRows = src
		for s, rows := range in.tuples[m] {
			src[s] = nil
			if rows != nil {
				src[s] = slot(&scr.srows, s, n)
				for i, p := range seg {
					src[s][i] = rows[p]
				}
			}
		}
	}
	ctx := &scr.ctx
	ctx.Reset(len(in.cols), nil)
	ctx.N = n
	read := in.read
	if keysOnly {
		read = in.keys
	}
	for _, ci := range read {
		oc := &in.cols[ci]
		if oc.Type == storage.Float64 {
			v := slot(&scr.cfloats, ci, n)
			gatherRows(v, oc.Floats, src[oc.src])
			ctx.SetFloat(ci, v)
		} else {
			v := slot(&scr.cints, ci, n)
			oc.gatherInts(v, src[oc.src])
			ctx.SetInt(ci, v)
		}
	}
	keys := scr.ckeys[:0]
	for _, ci := range in.keys {
		if in.cols[ci].Type == storage.Float64 {
			keys = append(keys, keyCol{floats: scr.cfloats[ci], float: true})
		} else {
			keys = append(keys, keyCol{ints: scr.cints[ci]})
		}
	}
	scr.ckeys = keys
	firsts := grow(scr.firsts[:0], n)
	scr.firsts = firsts
	base := int32(in.offs[m])
	for i := range firsts {
		if seg != nil {
			firsts[i] = base + seg[i]
		} else {
			firsts[i] = base + int32(i)
		}
	}
	return ctx, keys, scr.identitySel(0, n), firsts
}

// overChain is a grouped aggregation directly over a join: it runs the
// join chain's probe and aggregates the tuples leaving its top in place,
// gathering each morsel's group keys and argument columns from their
// sources into worker scratch, so the join output is never materialized.
// Each group still accumulates its tuples in global tuple order, the order
// of the materialized join output's rows, so the result is the same bits.
func (a *Agg) overChain(ec *ExecCtx, sp obs.SpanRef, j *Join) (*Relation, error) {
	c, err := j.probeChain(ec)
	if err != nil {
		return nil, err
	}
	nm := len(c.tuples)
	total := c.offs[nm]
	top := c.levels[len(c.levels)-1].sp
	c.pa.finish(ec, top)
	top.SetInt("rows.out", int64(total))
	top.End()
	sp.SetInt("rows.in", int64(total))

	in := &chainInput{tuples: c.tuples, offs: c.offs, cols: c.out}
	groupCols := make([]*RelCol, len(a.GroupBy))
	for i, name := range a.GroupBy {
		ci := c.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("engine: group-by column %q not found", name)
		}
		groupCols[i] = c.out[ci].RelCol
		in.keys = append(in.keys, ci)
	}
	baggs, err := bindAggs(a.Aggs, c)
	if err != nil {
		return nil, err
	}
	read := slices.Clone(in.keys)
	for _, ba := range baggs {
		if ba.bs != nil {
			for _, name := range ba.spec.Arg.ScalarColumns(nil) {
				read = append(read, c.ColumnIndex(name))
			}
		}
	}
	slices.Sort(read)
	in.read = slices.Compact(read)

	pa := parAccounting{workers: ec.workers(total), morsels: nm}
	out := a.outCols(groupCols, baggs)
	if err := runGrouped(ec, in, baggs, a.groupCount(), &pa, out); err != nil {
		return nil, err
	}
	pa.finish(ec, sp)
	return NewRelation(out)
}

// Execute performs hash aggregation, morsel-parallel under
// ExecCtx.MaxWorkers. A grouped aggregation directly over a join reads the
// join chain's tuples in place (overChain). Otherwise Filter nodes directly
// under the input stream as per-morsel selection vectors. Grouped
// aggregation hash-partitions by group key and accumulates each
// partition's rows in global row order; global aggregation accumulates
// per-morsel partial states merged in morsel order — both make parallel
// and Serial plans bit-identical for any worker count.
func (a *Agg) Execute(ec *ExecCtx) (rel *Relation, err error) {
	sp := beginNodeSpan(ec, a)
	defer func() { endNodeSpan(sp, rel, err) }()
	if err = ec.Cancelled(); err != nil {
		return nil, err
	}
	if j, ok := a.Input.(*Join); ok && len(a.GroupBy) > 0 {
		return a.overChain(ec, sp, j)
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
	if len(bounds) > 0 && sp.Active() {
		sp.SetInt("filters.fused", int64(len(bounds)))
	}

	n := in.NumRows()
	pa := parAccounting{workers: ec.workers(n), morsels: numMorsels(n)}
	out := a.outCols(groupCols, baggs)
	if len(groupCols) == 0 {
		err = runGlobal(ec, baggs, bounds, in, &pa, out)
	} else {
		err = runGrouped(ec, &relInput{rel: in, keys: groupKeys, bounds: bounds}, baggs, a.groupCount(), &pa, out)
	}
	if err != nil {
		return nil, err
	}
	pa.finish(ec, sp)
	return NewRelation(out)
}

// outCols returns the output columns, not yet sized: the group columns,
// then one per aggregate.
func (a *Agg) outCols(groupCols []*RelCol, baggs []*boundAgg) []RelCol {
	out := make([]RelCol, 0, len(groupCols)+len(baggs))
	for gi, c := range groupCols {
		out = append(out, RelCol{Name: a.GroupBy[gi], Type: c.Type, Dict: c.Dict})
	}
	for i, ba := range baggs {
		name := ba.spec.Name
		if name == "" {
			name = fmt.Sprintf("%s_%d", ba.spec.Func, i)
		}
		out = append(out, RelCol{Name: name, Type: ba.outTyp, Dict: ba.dict})
	}
	return out
}

// sizeCols gives every column of out n zero values.
func sizeCols(out []RelCol, n int) {
	for i := range out {
		if out[i].Type == storage.Float64 {
			out[i].Floats = make([]float64, n)
		} else {
			out[i].Ints = make([]int64, n)
		}
	}
}

// runGlobal computes the single global aggregate row into out: per-morsel
// partial states, merged in morsel index order. Every worker count —
// including one — runs the same partial/merge structure, so the result is
// identical for any degree of parallelism.
func runGlobal(ec *ExecCtx, baggs []*boundAgg, bounds []expr.Bound, in *Relation, pa *parAccounting, out []RelCol) error {
	nm := numMorsels(in.n)
	partials := newAggCols(baggs)
	for i := range partials {
		partials[i].resize(max(nm, 1), max(nm, 1)) // one zero state when no rows
	}
	cur := &taskCursor{n: nm}
	err := pa.run(pa.workers, func() error {
		scr := acquireMorselScratch()
		defer scr.release()
		ctx := scr.relCtx(in)
		return forEachTask(ec, cur, func(m int) error {
			lo, hi := morselRows(m, in.n)
			sel := morselSel(scr, ctx, bounds, lo, hi)
			if len(sel) == 0 {
				return nil
			}
			gidx := scr.groupIdx(len(sel))
			for i := range gidx {
				gidx[i] = int32(m)
			}
			for ai, ba := range baggs {
				iv, fv := evalChunk(ba, ctx, sel, scr)
				accumulate(&partials[ai], gidx, iv, fv)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	// Fold the partials into morsel 0's in order: a partial float sum is
	// never -0, so it equals 0 plus itself, and the result is the merge of
	// every partial into a zero state.
	sizeCols(out, 1)
	for ai := range partials {
		for m := 1; m < nm; m++ {
			partials[ai].merge(0, &partials[ai], m)
		}
		partials[ai].result(&out[ai], 0, 0)
	}
	return nil
}

// runGrouped aggregates in's rows into out's columns, hash-partitioning the
// groups over pa.workers. Phase 1 scatters each morsel's selected rows by
// group-hash partition (a per-morsel counting sort into the morsel's own
// segment of rowBuf, preserving row order). Phase 2 workers claim
// partitions and fold each partition's rows iterating morsels in ascending
// order — every group therefore accumulates its rows in global row order,
// for any worker count. A single worker has one partition, every morsel's
// rows whole, and nothing to scatter.
//
// The tables are sized for the groups last holds, the count of the plan's
// last complete run, capped at one group per input row, an even share per
// partition; a complete run stores its own count there. The size is
// capacity only: a table holding more groups grows, and group ids and order
// do not depend on it.
func runGrouped(ec *ExecCtx, in groupInput, baggs []*boundAgg, last *atomic.Int64, pa *parAccounting, out []RelCol) error {
	width := len(out) - len(baggs)
	nm := in.morsels()
	nP := partitionsFor(pa.workers)
	size := tableSize(min(int(last.Load()), in.base(nm)), nP)
	var rowBuf, moffs []int32
	if nP > 1 {
		pshift := partShift(nP)
		rowBuf = make([]int32, in.base(nm)) // morsel m owns rowBuf[base(m):base(m+1)]
		moffs = make([]int32, nm*(nP+1))    // per-morsel partition offsets into its segment
		cur := &taskCursor{n: nm}
		err := pa.run(pa.workers, func() error {
			scr := acquireMorselScratch()
			defer scr.release()
			return forEachTask(ec, cur, func(m int) error {
				_, keys, sel, _ := in.rows(scr, m, nil, true)
				pids := scr.partIds(len(sel))
				var count, cursor [maxPartitions]int32
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
				seg := rowBuf[in.base(m):in.base(m+1)]
				for i, row := range sel {
					p := pids[i]
					seg[cursor[p]] = int32(row)
					cursor[p]++
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
	}

	tables := make([]*aggTable, nP)
	pcur := &taskCursor{n: nP}
	err := pa.run(pa.workers, func() error {
		scr := acquireMorselScratch()
		defer scr.release()
		return forEachTask(ec, pcur, func(p int) error {
			t := newAggTable(width, size, baggs)
			tables[p] = t
			for m := 0; m < nm; m++ {
				if err := ec.Cancelled(); err != nil {
					return err
				}
				var seg []int32 // nil: the morsel's rows whole
				if nP > 1 {
					offs := moffs[m*(nP+1):]
					s, e := offs[p], offs[p+1]
					if s == e {
						continue
					}
					base := in.base(m)
					seg = rowBuf[base+int(s) : base+int(e)]
				}
				if ctx, keys, sel, firsts := in.rows(scr, m, seg, false); len(sel) > 0 {
					processChunk(t, baggs, ctx, keys, sel, firsts, scr)
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	last.Store(int64(collectGroups(tables, out, width)))
	return nil
}

// collectGroups writes the partition tables' groups to out — group columns
// from the group's key words, which are its first row's values bit for
// bit, then the aggregates — ordered by first occurrence. Each group lives
// in exactly one partition, whose table already lists its groups in
// first-occurrence order, so a k-way merge on the first row reproduces the
// serial order without a sort. It returns the number of groups written.
func collectGroups(tables []*aggTable, out []RelCol, width int) int {
	total := 0
	for _, t := range tables {
		total += len(t.firstRow)
	}
	sizeCols(out, total)
	next := make([]int, len(tables))
	for k := 0; k < total; k++ {
		best := -1
		for p, t := range tables {
			if g := next[p]; g < len(t.firstRow) && (best < 0 || t.firstRow[g] < tables[best].firstRow[next[best]]) {
				best = p
			}
		}
		t, g := tables[best], next[best]
		next[best]++
		for i, w := range t.groups.words[g*width:][:width] {
			if out[i].Type == storage.Float64 {
				out[i].Floats[k] = math.Float64frombits(w)
			} else {
				out[i].Ints[k] = int64(w)
			}
		}
		for ai := range t.states {
			t.states[ai].result(&out[width+ai], k, g)
		}
	}
	return total
}

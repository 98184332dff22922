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
// global position of sel[i].
func processChunk(t *aggTable, baggs []*boundAgg, ctx *expr.BlockCtx, keys keyCols, sel []int, firsts []int32, scr *morselScratch) {
	gidx := scr.groupIdx(len(sel))
	for i, row := range sel {
		gidx[i] = t.groupOf(keys, row, firsts[i])
	}
	for ai, ba := range baggs {
		iv, fv := evalChunk(ba, ctx, sel, scr)
		accumulate(&t.states[ai], gidx, iv, fv)
	}
}

// groupInput is what aggregation reads, one morsel at a time: a
// materialized relation, the tuples leaving a join chain, or a scan's
// output runs. Morsel m's rows take slots base(m) up to base(m+1) of the
// input's row space, at most maxMorselRows of them; within the morsel, a
// row is known by its position.
type groupInput interface {
	morsels() int
	base(m int) int
	// rows prepares morsel m's rows in scr, all of them when seg is nil,
	// else the ones seg lists by their position, ascending. It returns
	// the context and key columns to read them with, the selection (a nil
	// seg's selects rows by their position), and each selected row's
	// global position. With keysOnly, only the key columns need to be
	// readable.
	rows(scr *morselScratch, m int, seg []uint16, keysOnly bool) (*expr.BlockCtx, keyCols, []int, []int32)
}

// relInput is a materialized relation under fused filters; morsels are
// its fixed 4096-row spans, each read through a context over its rows.
type relInput struct {
	rel    *Relation
	keys   []int // the group columns
	bounds []expr.Bound
}

func (r *relInput) morsels() int   { return numMorsels(r.rel.n) }
func (r *relInput) base(m int) int { return min(m*morselSize, r.rel.n) }

func (r *relInput) rows(scr *morselScratch, m int, seg []uint16, _ bool) (*expr.BlockCtx, keyCols, []int, []int32) {
	lo, hi := r.base(m), r.base(m+1)
	ctx := scr.relCtx(r.rel, lo, hi)
	var sel []int
	if seg != nil {
		sel = scr.selFromSeg(seg)
	} else {
		sel = morselSel(scr, ctx, r.bounds, 0, hi-lo)
	}
	return ctx, scr.ctxKeys(ctx, r.keys), sel, scr.positions(lo, sel)
}

// maxMorselRows bounds the rows of one aggregation input morsel: the
// partition scatter names a row by its uint16 position in its morsel.
const maxMorselRows = 1 << 16

// chainInput is the tuples leaving a join chain's top, read in place. Its
// morsels are the probe morsels, each cut into pieces of maxMorselRows
// tuples when its fanout leaves more.
type chainInput struct {
	tuples [][][]int32 // per probe morsel, a row list per source
	probe  []int       // per morsel: the probe morsel its tuples are of
	poffs  []int       // probe morsel p's tuples are output positions poffs[p] up to poffs[p+1]
	offs   []int       // morsel m's tuples are output positions offs[m] up to offs[m+1]
	cols   []chainCol  // the chain's output columns
	keys   []int       // the group columns, indexes into cols
	read   []int       // every column keys and aggregate arguments read, ascending
}

// newChainInput cuts c's probe morsels into the input's morsels.
func newChainInput(c *joinChain) *chainInput {
	nm := len(c.tuples)
	in := &chainInput{tuples: c.tuples, probe: make([]int, 0, nm), poffs: c.offs, offs: make([]int, 0, nm+1), cols: c.out}
	for p := range nm {
		for lo, hi := c.offs[p], c.offs[p+1]; ; {
			in.probe = append(in.probe, p)
			in.offs = append(in.offs, lo)
			if lo = min(lo+maxMorselRows, hi); lo == hi {
				break
			}
		}
	}
	in.offs = append(in.offs, c.offs[nm])
	return in
}

func (in *chainInput) morsels() int   { return len(in.probe) }
func (in *chainInput) base(m int) int { return in.offs[m] }

// rows gathers the columns read into the worker's scratch, one vector per
// column over the tuples, each value from its source row (0 for an
// unmatched left outer row, as gatherRows writes it), and selects every
// position of them. seg lists tuples by their position in the morsel.
func (in *chainInput) rows(scr *morselScratch, m int, seg []uint16, keysOnly bool) (*expr.BlockCtx, keyCols, []int, []int32) {
	n := in.offs[m+1] - in.offs[m]
	if n == 0 {
		return nil, nil, nil, nil
	}
	p := in.probe[m]
	lo := in.offs[m] - in.poffs[p]
	src := grow(scr.srcRows[:0], len(in.tuples[p]))
	scr.srcRows = src
	for s, rows := range in.tuples[p] {
		src[s] = nil
		if rows == nil {
			continue
		}
		rows = rows[lo : lo+n]
		if seg != nil {
			picked := slot(&scr.srows, s, len(seg))
			for i, q := range seg {
				picked[i] = rows[q]
			}
			rows = picked
		}
		src[s] = rows
	}
	if seg != nil {
		n = len(seg)
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
	keys, base := scr.ctxKeys(ctx, in.keys), in.offs[m]
	if seg == nil {
		sel := scr.identitySel(0, n)
		return ctx, keys, sel, scr.positions(base, sel)
	}
	// The gathered tuples are seg's, in seg's order: select all of them, at
	// the positions seg gives.
	firsts := scr.positions(base, scr.selFromSeg(seg))
	return ctx, keys, scr.identitySel(0, n), firsts
}

// scanInput is a scan's output read in place by the aggregate directly
// above it: the output runs the scan's phase 1 kept per slice, which stay
// valid, under the scan lock, until the scan closes after the aggregate.
// Its morsels are the 4096-row spans of the scan's output positions, the
// rows of the relation the scan would have materialized, so global
// partials, group order and every float sum are that relation's.
type scanInput struct {
	st     *scanState
	starts []runPos // per morsel: where its first output row is
	keys   []int    // the group columns, indexes into st.out
	read   []int    // every column keys and aggregate arguments read, ascending
}

// runPos addresses an output row of a scan: skip rows into output run run
// of slice slice.
type runPos struct{ slice, run, skip int }

// runSeg is a stretch of a morsel's runs that reads one slice: runs up to
// index end of the morsel's list, rows rows in all.
type runSeg struct{ slice, end, rows int }

// newScanInput indexes st's output runs by morsel.
func newScanInput(st *scanState) *scanInput {
	nm := numMorsels(st.total)
	in := &scanInput{st: st, starts: make([]runPos, nm)}
	m := 0
	for s := range st.results {
		pos := st.results[s].off
		for r, run := range st.results[s].scratch.runs {
			for ; m < nm && m*morselSize < pos+run.len(); m++ {
				in.starts[m] = runPos{slice: s, run: r, skip: m*morselSize - pos}
			}
			pos += run.len()
		}
	}
	return in
}

func (in *scanInput) morsels() int   { return len(in.starts) }
func (in *scanInput) base(m int) int { return min(m*morselSize, in.st.total) }

// rows gathers morsel m's read columns (only its key columns, with
// keysOnly) from the scan's runs into the worker's scratch, one vector per
// column, and selects every row of the morsel. Given a partition's seg,
// it reads only the rows seg lists by their position in the morsel, and
// selects all of those.
func (in *scanInput) rows(scr *morselScratch, m int, seg []uint16, keysOnly bool) (*expr.BlockCtx, keyCols, []int, []int32) {
	lo, hi := morselRows(m, in.st.total)
	n := hi - lo
	// The morsel's runs, the first and last clipped to it, in stretches of
	// one slice each.
	runs, segs := scr.sruns[:0], scr.ssegs[:0]
	for p, left := in.starts[m], n; left > 0; {
		sliceRuns := in.st.results[p.slice].scratch.runs
		if p.run == len(sliceRuns) {
			p = runPos{slice: p.slice + 1}
			continue
		}
		run := sliceRuns[p.run]
		run.lo += uint16(p.skip)
		if run.len() > left {
			run.hi = run.lo + uint16(left)
		}
		left -= run.len()
		if len(segs) == 0 || segs[len(segs)-1].slice != p.slice {
			segs = append(segs, runSeg{slice: p.slice})
		}
		runs = append(runs, run)
		segs[len(segs)-1].end = len(runs)
		segs[len(segs)-1].rows += run.len()
		p = runPos{slice: p.slice, run: p.run + 1}
	}
	scr.sruns, scr.ssegs = runs, segs

	ctx := &scr.ctx
	ctx.Reset(len(in.st.out), nil)
	read := in.read
	if keysOnly {
		read = in.keys
	}
	if seg != nil {
		// A partition's segment of the morsel: read only its rows.
		blks, rows := scr.segRows(runs, segs, seg)
		ctx.N = len(seg)
		for _, ci := range read {
			dst := in.scratchCol(scr, ctx, ci, len(seg))
			gatherPoints(&dst, in.st.tbl, in.st.src[ci], blks, rows)
		}
		firsts := scr.positions(lo, scr.selFromSeg(seg)) // before sel takes the scratch vector
		return ctx, scr.ctxKeys(ctx, in.keys), scr.identitySel(0, len(seg)), firsts
	}
	ctx.N = n
	for _, ci := range read {
		dst := in.scratchCol(scr, ctx, ci, n)
		from, off := 0, 0
		for _, sg := range segs {
			gatherRuns(&dst, in.st.tbl.Slice(sg.slice), sg.slice, in.st.src[ci], runs[from:sg.end], off)
			from, off = sg.end, off+sg.rows
		}
	}
	sel := scr.identitySel(0, n)
	return ctx, scr.ctxKeys(ctx, in.keys), sel, scr.positions(lo, sel)
}

// scratchCol returns a column over the worker's n-value scratch vector for
// output column ci, which ctx reads as column ci.
func (in *scanInput) scratchCol(scr *morselScratch, ctx *expr.BlockCtx, ci, n int) RelCol {
	dst := RelCol{Type: in.st.out[ci].Type}
	if dst.Type == storage.Float64 {
		dst.Floats = slot(&scr.cfloats, ci, n)
		ctx.SetFloat(ci, dst.Floats)
	} else {
		dst.Ints = slot(&scr.cints, ci, n)
		ctx.SetInt(ci, dst.Ints)
	}
	return dst
}

// rowBlock is a stretch of a segment's rows in one block: rows up to index
// end of the segment's block-relative rows, in block blk of slice slice.
type rowBlock struct {
	slice, blk int32
	end        int
}

// segRows maps the positions seg lists (ascending) of the rows runs lists,
// in the stretches segs, to block-relative rows, in stretches of one block.
func (scr *morselScratch) segRows(runs []outRun, segs []runSeg, seg []uint16) ([]rowBlock, []uint16) {
	blks, rows := scr.rblks[:0], grow(scr.rrows[:0], len(seg))
	r, s, start := 0, 0, 0 // run r holds positions start up to start+runs[r].len()
	for i, q := range seg {
		pos := int(q)
		for pos >= start+runs[r].len() {
			start += runs[r].len()
			r++
		}
		for r >= segs[s].end {
			s++
		}
		rows[i] = runs[r].lo + uint16(pos-start)
		if k := len(blks) - 1; k < 0 || blks[k].slice != int32(segs[s].slice) || blks[k].blk != runs[r].blk {
			blks = append(blks, rowBlock{slice: int32(segs[s].slice), blk: runs[r].blk})
		}
		blks[len(blks)-1].end = i + 1
	}
	scr.rblks, scr.rrows = blks, rows
	return blks, rows
}

// readCols returns the indexes in src of the group columns keys and of
// every column the aggregates' arguments read, ascending, each once.
func readCols(keys []int, baggs []*boundAgg, src expr.Source) []int {
	read := append(make([]int, 0, len(keys)+2*len(baggs)), keys...)
	for _, ba := range baggs {
		if ba.bs != nil {
			for _, name := range ba.spec.Arg.ScalarColumns(nil) {
				read = append(read, src.ColumnIndex(name))
			}
		}
	}
	slices.Sort(read)
	return slices.Compact(read)
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

	in := newChainInput(c)
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
	in.read = readCols(in.keys, baggs, c)

	pa := parAccounting{workers: ec.workers(total), morsels: nm}
	out := a.outCols(groupCols, baggs)
	if err := runGrouped(ec, in, baggs, a.groupCount(), &pa, out); err != nil {
		return nil, err
	}
	pa.finish(ec, sp)
	return NewRelation(out)
}

// overScan is an aggregation directly over a scan. It opens the scan,
// aggregates the output runs the scan's phase 1 kept in place (scanInput),
// gathering each morsel's group keys and argument columns into worker
// scratch, and closes the scan once the aggregate is done, so the scan's
// output is never materialized and the cache learns of the scan only when
// its consumer completed. The scan lock is held throughout.
func (a *Agg) overScan(ec *ExecCtx, sp obs.SpanRef, s *Scan) (*Relation, error) {
	st, err := s.open(ec)
	if err != nil {
		return nil, err
	}
	out, err := a.overRuns(ec, sp, st)
	if err := st.close(err); err != nil {
		return nil, err
	}
	return NewRelation(out)
}

// overRuns aggregates an open scan's output runs into the aggregate's
// output columns. It binds against the scan's output columns, as the
// materialized path binds against the relation they would fill.
func (a *Agg) overRuns(ec *ExecCtx, sp obs.SpanRef, st *scanState) ([]RelCol, error) {
	shape, err := NewRelation(st.out) // the scan's output columns, no rows
	if err != nil {
		return nil, err
	}
	sp.SetInt("rows.in", int64(st.total))
	groupCols, _, err := relKeyCols(shape, a.GroupBy, "group-by column")
	if err != nil {
		return nil, err
	}
	baggs, err := bindAggs(a.Aggs, shape)
	if err != nil {
		return nil, err
	}
	in := newScanInput(st)
	for _, name := range a.GroupBy {
		in.keys = append(in.keys, shape.ColumnIndex(name))
	}
	in.read = readCols(in.keys, baggs, shape)

	pa := parAccounting{workers: ec.workers(st.total), morsels: in.morsels()}
	out := a.outCols(groupCols, baggs)
	if len(groupCols) == 0 {
		err = runGlobal(ec, baggs, in, &pa, out)
	} else {
		err = runGrouped(ec, in, baggs, a.groupCount(), &pa, out)
	}
	if err != nil {
		return nil, err
	}
	pa.finish(ec, sp)
	return out, nil
}

// Execute performs hash aggregation, morsel-parallel under
// ExecCtx.MaxWorkers. A grouped aggregation directly over a join reads the
// join chain's tuples in place (overChain), and any aggregation directly
// over a scan reads the scan's output runs in place (overScan). Otherwise
// Filter nodes directly under the input stream as per-morsel selection
// vectors. Grouped
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
	switch in := a.Input.(type) {
	case *Join:
		if len(a.GroupBy) > 0 {
			return a.overChain(ec, sp, in)
		}
	case *Scan:
		return a.overScan(ec, sp, in)
	}
	inNode, fusedPreds := fusedFilterInput(a.Input)
	in, err := inNode.Execute(ec)
	if err != nil {
		return nil, err
	}
	setRowsIn(sp, in)

	groupCols, _, err := relKeyCols(in, a.GroupBy, "group-by column")
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
	rin := &relInput{rel: in, bounds: bounds}
	for _, name := range a.GroupBy {
		rin.keys = append(rin.keys, in.ColumnIndex(name))
	}
	if len(groupCols) == 0 {
		err = runGlobal(ec, baggs, rin, &pa, out)
	} else {
		err = runGrouped(ec, rin, baggs, a.groupCount(), &pa, out)
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
func runGlobal(ec *ExecCtx, baggs []*boundAgg, in groupInput, pa *parAccounting, out []RelCol) error {
	nm := in.morsels()
	partials := newAggCols(baggs)
	for i := range partials {
		partials[i].resize(max(nm, 1), max(nm, 1)) // one zero state when no rows
	}
	cur := &taskCursor{n: nm}
	err := pa.run(pa.workers, func() error {
		scr := acquireMorselScratch()
		defer scr.release()
		return forEachTask(ec, cur, func(m int) error {
			ctx, _, sel, _ := in.rows(scr, m, nil, false)
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
	var rowBuf []uint16
	var moffs []int32
	if nP > 1 {
		pshift := partShift(nP)
		rowBuf = make([]uint16, in.base(nm)) // morsel m owns rowBuf[base(m):base(m+1)]
		moffs = make([]int32, nm*(nP+1))     // per-morsel partition offsets into its segment
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
					seg[cursor[p]] = uint16(row)
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
				var seg []uint16 // nil: the morsel's rows whole
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

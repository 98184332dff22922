package engine

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/predcache/predcache/internal/bloom"
	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/obs"
	"github.com/predcache/predcache/internal/storage"
)

// semiJoinFilter is a runtime semi-join filter pushed into a probe-side
// scan by a hash join (§4.4): a Bloom filter over the build side's join
// keys plus — when the build side is describable — the key components that
// let the predicate cache index the filtered scan.
type semiJoinFilter struct {
	keyCol string // probe-side join key column
	filter *bloom.Filter
	// stringKeys marks that the bloom holds FNV hashes of string values
	// rather than raw integer keys.
	stringKeys bool

	// cacheable semi-joins contribute to the scan's cache key.
	cacheable bool
	sjKey     core.SemiJoinKey
	deps      []core.BuildDep
}

// FNV-1a 64-bit parameters (hash/fnv), inlined so hashing a join key
// allocates neither a hasher nor a []byte copy of the string.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashString hashes a string join key for bloom insertion/probing. It is
// bit-identical to fnv.New64a().Write([]byte(s)).Sum64(), so filters built
// by the join probe the same values the scan-side memo computes.
func hashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// sliceScanResult is the per-slice outcome of a scan. The counters are
// slice-local so the hot loop avoids shared atomics; Execute folds them into
// ec.Stats (and the scan's trace span) once per scan.
type sliceScanResult struct {
	plainRanges       []storage.RowRange // rows passing the filter (pre-bloom, pre-visibility)
	sjRanges          []storage.RowRange // rows passing filter + semi-join filters
	plainFrom, sjFrom int                // the recorders' rangeRecorder.from
	numRows           int
	// scratch holds the slice's candidates, the two range lists above (the
	// cache copies what it keeps) and, from the filter phase to the gather
	// phase, its output runs; Execute releases it after the cache calls.
	scratch *scanScratch
	// sinceCheck carries the filter phase's cancellation countdown into the
	// gather phase; off is the slice's first row in the scan's output.
	sinceCheck, off int

	rowsScanned       int64
	rowsQualified     int64 // the slice's output rows
	blocksAccessed    int64
	blocksVisited     int64 // iterations of the block loop: blocks holding a candidate row
	blocksZonePruned  int64 // zone maps eliminated the block (step 1)
	blocksCachePruned int64 // cached candidate ranges excluded the block entirely
	blocksDecoded     int64 // (column, block) pairs actually decompressed
	blocksKernel      int64 // kernel evaluations on encoded (column, block) pairs
	rowsDecoded       int64 // values materialized by the (partial) decoder
}

// sliceBoundsProvider adapts a slice's per-block zone maps for pruning.
type sliceBoundsProvider struct {
	slice *storage.Slice
	block int
}

func (p *sliceBoundsProvider) IntBounds(col int) (int64, int64, bool) {
	return p.slice.Column(col).IntBounds(p.block)
}

func (p *sliceBoundsProvider) FloatBounds(col int) (float64, float64, bool) {
	return p.slice.Column(col).FloatBounds(p.block)
}

// scanState is one execution of a scan as its workers see it: what every
// slice reads and none writes — the bound predicate with its kernel plan, the
// pushed semi-join filters, the output columns with the base-table column
// each reads — and the per-slice results, handed out one slice at a time by
// a cursor that each phase runs over once.
type scanState struct {
	ec        *ExecCtx
	sp        obs.SpanRef // the scan's span, parent of the slice spans
	tbl       *storage.Table
	bound     expr.Bound
	plan      *expr.ScanPlan
	sjs       []*semiJoinFilter
	sjKeyCols []int
	sjMemos   [][]bool
	out       []RelCol
	src       []int // per output column: its base-table column, or rowIDCol
	results   []sliceScanResult

	next   atomic.Int64 // the slice cursor
	gather bool         // the phase the cursor runs: filter, then gather
}

// rowIDCol marks the rowid output column (Scan.RowIDs) in scanState.src.
// Its values come from row positions, never from a column store.
const rowIDCol = -1

// scanColumns returns a scan's output columns, still empty and led by the
// rowid column when rowIDs is set, and the base-table column each reads.
func scanColumns(tbl *storage.Table, project []string, alias string, rowIDs bool) ([]RelCol, []int, error) {
	out, src := make([]RelCol, 0, len(project)+1), make([]int, 0, len(project)+1)
	if rowIDs {
		out = append(out, RelCol{Name: "rowid", Type: storage.Int64})
		src = append(src, rowIDCol)
	}
	for _, name := range project {
		ci := tbl.ColumnIndex(name)
		if ci < 0 {
			return nil, nil, fmt.Errorf("engine: table %s has no column %q", tbl.Name(), name)
		}
		outName := name
		if alias != "" {
			outName = alias + "." + name
		}
		out = append(out, RelCol{Name: outName, Type: tbl.ColumnType(ci), Dict: tbl.Dict(ci)})
		src = append(src, ci)
	}
	return out, src, nil
}

// Execute runs the scan: the paper's Figure 11 flow. It checks the
// predicate cache for the scan expression (step 1), restricts the
// range-restricted scan to cached candidate ranges on a hit (step 5),
// re-evaluates the predicate on candidates to eliminate false positives,
// and inserts/extends cache entries from the qualifying ranges the
// vectorized scan produced (steps 3-4).
func (s *Scan) Execute(ec *ExecCtx) (rel *Relation, err error) {
	sp := beginNodeSpan(ec, s)
	defer func() { endNodeSpan(sp, rel, err) }()

	tbl, ok := ec.Catalog.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %s", s.Table)
	}
	pred := s.Filter
	if pred == nil {
		pred = expr.TruePred{}
	}

	project := s.Project
	if project == nil {
		for _, def := range tbl.Schema() {
			project = append(project, def.Name)
		}
	}

	sjs := s.runtimeSJ
	sjKeyCols := make([]int, len(sjs))
	for i, sj := range sjs {
		ci := tbl.ColumnIndex(sj.keyCol)
		if ci < 0 {
			return nil, fmt.Errorf("engine: semi-join key %s not in table %s", sj.keyCol, s.Table)
		}
		sjKeyCols[i] = ci
	}

	// Cache keys: the plain filter key, plus the semi-join key when every
	// pushed filter is describable (§4.4: entries with and without semi-join
	// filters live in the same cache).
	plainKey := core.Key{Table: s.Table, Predicate: pred.Key()}
	var sjCacheKey core.Key
	var sjDeps []core.BuildDep
	sjKeyOK := false
	if len(sjs) > 0 && !ec.DisableSemiJoinCache {
		sjKeyOK = true
		sjCacheKey = core.Key{Table: s.Table, Predicate: pred.Key()}
		for _, sj := range sjs {
			if !sj.cacheable {
				sjKeyOK = false
				break
			}
			sjCacheKey.SemiJoins = append(sjCacheKey.SemiJoins, sj.sjKey)
			sjDeps = append(sjDeps, sj.deps...)
		}
	}

	// Step 1: cache lookup, most selective entry wins.
	var cand core.Candidates
	hit := false
	useCache := ec.Cache != nil
	var statsBefore core.Stats
	if sp.Active() && useCache {
		statsBefore = ec.Cache.Stats()
	}
	if useCache && !ec.ForceCacheInsertOnly {
		lsp := ec.Trace.Begin(obs.KindCache, "lookup")
		keys := []string{plainKey.String()}
		if sjKeyOK {
			keys = append(keys, sjCacheKey.String())
		}
		cand, hit = ec.Cache.Best(keys)
		if lsp.Active() {
			if hit {
				lsp.SetStr("outcome", "hit")
				lsp.SetStr("entry", cand.Key)
			} else {
				lsp.SetStr("outcome", "miss")
			}
		}
		lsp.End()
	}
	if ec.Stats != nil {
		if hit {
			ec.Stats.CacheHits.Add(1)
		} else if useCache {
			ec.Stats.CacheMisses.Add(1)
		}
	}
	usedSJEntry := hit && cand.Key != plainKey.String()

	// The layout epoch is captured before the scan lock: if a vacuum slips
	// in between, the inserted entry carries the pre-vacuum epoch and is
	// conservatively treated as stale on its first lookup.
	epoch := tbl.LayoutEpoch()
	unlock := tbl.RLockScan()

	// Binding happens under the scan lock: it snapshots string dictionaries
	// (LIKE memos, code lookups), which concurrent appends may grow.
	bound, err := expr.Bind(pred, tbl)
	if err != nil {
		unlock()
		return nil, err
	}
	out, src, err := scanColumns(tbl, project, s.Alias, s.RowIDs)
	if err != nil {
		unlock()
		return nil, err
	}
	// Split the bound predicate into encoded-domain kernels plus a residual
	// (decode-then-Eval) part. The split is per-scan, not per-block; blocks
	// whose encoding lacks a kernel fall back leaf-by-leaf during the scan.
	var plan *expr.ScanPlan
	if ec.DisableEncodedKernels {
		plan = expr.NoKernelPlan(bound)
	} else {
		plan = expr.PlanKernels(bound)
	}
	numCols := len(tbl.Schema())
	dicts := make([]*storage.Dict, numCols)
	for i := 0; i < numCols; i++ {
		dicts[i] = tbl.Dict(i)
	}
	sjMemos := make([][]bool, len(sjs))
	for i, sj := range sjs {
		if !sj.stringKeys {
			continue
		}
		dict := tbl.Dict(sjKeyCols[i])
		memo := make([]bool, dict.Len())
		for code := range memo {
			memo[code] = sj.filter.MayContain(hashString(dict.Value(int64(code))))
		}
		sjMemos[i] = memo
	}

	numSlices := tbl.NumSlices()
	results := make([]sliceScanResult, numSlices)
	// Each slice's candidates: the entry's ranges plus the tail past its
	// watermark on a hit, every row otherwise. Their row count picks the
	// worker count, so a one-block hit runs inline and a full-table miss
	// uses every worker.
	candRows := 0
	for i := range results {
		res := &results[i]
		res.numRows = tbl.Slice(i).NumRows()
		// The recorders start at the rows the cache takes (steps 3-4 below):
		// both entries whole on a miss; on a hit, the entry's rows past its
		// watermark, and a plain-key hit may insert the semi-join entry whole.
		res.plainFrom, res.sjFrom = math.MaxInt, math.MaxInt
		if useCache {
			from := 0
			if hit {
				from = math.MaxInt
				if i < len(cand.Watermarks) {
					from = cand.Watermarks[i]
				}
			}
			switch {
			case usedSJEntry:
				res.sjFrom = from
			case sjKeyOK:
				res.plainFrom, res.sjFrom = from, 0
			default:
				res.plainFrom = from
			}
		}
		res.scratch = acquireScanScratch(numCols, dicts)
		candidates := res.scratch.cands[:0]
		if hit && i < len(cand.PerSlice) && cand.Watermarks[i] <= res.numRows {
			candidates = append(candidates, cand.PerSlice[i]...)
			if watermark := cand.Watermarks[i]; watermark < res.numRows {
				candidates = append(candidates, storage.RowRange{Start: watermark, End: res.numRows})
			}
		} else if res.numRows > 0 {
			candidates = append(candidates, storage.RowRange{Start: 0, End: res.numRows})
		}
		res.scratch.cands = candidates
		for _, r := range candidates {
			candRows += r.End - r.Start
		}
	}
	// Scratches are released only after the gather phase has read their
	// output runs and the cache their range lists.
	defer func() {
		for i := range results {
			results[i].scratch.release()
		}
	}()
	// Phase 1 filters every slice down to its output runs and so counts its
	// output rows; the output is then allocated at its exact size, and phase 2
	// gathers each slice's rows straight from the compressed blocks into the
	// slice's own region of it, in slice order, on as many workers as its
	// output rows call for. Each slice writes only its own result and output
	// region, so output, cache entries and counters do not depend on the
	// worker count.
	st := &scanState{ec: ec, sp: sp, tbl: tbl, bound: bound, plan: plan, sjs: sjs, sjKeyCols: sjKeyCols,
		sjMemos: sjMemos, out: out, src: src, results: results}
	work := st.work
	pa := parAccounting{workers: min(ec.workers(candRows), numSlices)}
	err = pa.run(pa.workers, work)
	if err == nil {
		total := 0
		for i := range results {
			results[i].off = total
			total += int(results[i].rowsQualified)
		}
		if total > 0 {
			for j := range out {
				if out[j].Type == storage.Float64 {
					out[j].Floats = make([]float64, total)
				} else {
					out[j].Ints = make([]int64, total)
				}
			}
			st.next.Store(0)
			st.gather = true
			err = pa.run(min(ec.workers(total), numSlices), work)
		}
	}
	unlock()
	if err != nil {
		return nil, err
	}
	pa.finish(ec, sp)

	// Fold the slice-local counters into the shared query stats in one pass
	// (per-scan rather than per-block atomics keep the hot loop cheap).
	var tot sliceScanResult
	for i := range results {
		tot.rowsScanned += results[i].rowsScanned
		tot.rowsQualified += results[i].rowsQualified
		tot.blocksAccessed += results[i].blocksAccessed
		tot.blocksVisited += results[i].blocksVisited
		tot.blocksZonePruned += results[i].blocksZonePruned
		tot.blocksCachePruned += results[i].blocksCachePruned
		tot.blocksDecoded += results[i].blocksDecoded
		tot.blocksKernel += results[i].blocksKernel
		tot.rowsDecoded += results[i].rowsDecoded
	}
	if ec.Stats != nil {
		ec.Stats.RowsScanned.Add(tot.rowsScanned)
		ec.Stats.RowsQualified.Add(tot.rowsQualified)
		ec.Stats.BlocksAccessed.Add(tot.blocksAccessed)
		ec.Stats.BlocksSkipped.Add(tot.blocksZonePruned)
		ec.Stats.BlocksPrunedCache.Add(tot.blocksCachePruned)
		ec.Stats.BlocksDecoded.Add(tot.blocksDecoded)
		ec.Stats.BlocksKernel.Add(tot.blocksKernel)
		ec.Stats.RowsDecoded.Add(tot.rowsDecoded)
	}
	if sp.Active() {
		switch {
		case !useCache:
			sp.SetStr("cache", "off")
		case hit:
			sp.SetStr("cache", "hit")
		default:
			sp.SetStr("cache", "miss")
		}
		sp.SetInt("rows.scanned", tot.rowsScanned)
		sp.SetInt("rows.qualified", tot.rowsQualified)
		sp.SetInt("blocks.accessed", tot.blocksAccessed)
		sp.SetInt("blocks.visited", tot.blocksVisited)
		sp.SetInt("blocks.pruned.zonemap", tot.blocksZonePruned)
		sp.SetInt("blocks.pruned.cache", tot.blocksCachePruned)
		sp.SetInt("blocks.decoded", tot.blocksDecoded)
		sp.SetInt("blocks.kernel_encoded", tot.blocksKernel)
		sp.SetInt("rows.decoded", tot.rowsDecoded)
	}

	// Steps 3-4: feed the cache from the ranges the vectorized scan
	// (performed after releasing the scan lock: cache bookkeeping reads
	// table versions, which must not nest inside the table's read lock)
	// produced. On a miss both keys are inserted; on a plain-key hit the
	// semi-join entry can still be inserted (its rows are a subset of the
	// candidates scanned); on a semi-join-entry hit only that entry is
	// extended — plain qualifying rows outside the entry were never visited.
	if useCache {
		switch {
		case !hit:
			csp := ec.Trace.Begin(obs.KindCache, "insert")
			plainRanges, sjRanges, watermarks := insertArgs(results)
			ec.Cache.Insert(plainKey, tbl, epoch, nil, plainRanges, watermarks)
			if sjKeyOK {
				ec.Cache.Insert(sjCacheKey, tbl, epoch, sjDeps, sjRanges, watermarks)
			}
			if csp.Active() {
				csp.SetStr("key", plainKey.String())
			}
			csp.End()
		case !usedSJEntry:
			csp := ec.Trace.Begin(obs.KindCache, "extend")
			for i := range results {
				if i >= len(cand.Watermarks) {
					break // defensive: entry slice count mismatch
				}
				if res := &results[i]; len(res.plainRanges) > 0 || res.numRows > cand.Watermarks[i] {
					ec.Cache.Extend(plainKey.String(), i, res.plainRanges, res.numRows)
				}
			}
			// Only (re)build the semi-join entry when none is current: a
			// steady-state warm scan must not pay entry construction again
			// ("rigorously avoiding slowdowns", §1).
			if sjKeyOK && !ec.Cache.Has(sjCacheKey.String()) {
				_, sjRanges, watermarks := insertArgs(results)
				ec.Cache.Insert(sjCacheKey, tbl, epoch, sjDeps, sjRanges, watermarks)
			}
			if csp.Active() {
				csp.SetStr("key", plainKey.String())
			}
			csp.End()
		default:
			csp := ec.Trace.Begin(obs.KindCache, "extend")
			for i := range results {
				if i >= len(cand.Watermarks) {
					break // defensive: entry slice count mismatch
				}
				if res := &results[i]; len(res.sjRanges) > 0 || res.numRows > cand.Watermarks[i] {
					ec.Cache.Extend(sjCacheKey.String(), i, res.sjRanges, res.numRows)
				}
			}
			if csp.Active() {
				csp.SetStr("key", sjCacheKey.String())
			}
			csp.End()
		}
	}
	// Evictions/invalidations have no single call site inside the scan, so
	// the span reports them as registry deltas across this execution; under
	// concurrency another query's activity can leak into the delta, which is
	// acceptable for a diagnostic annotation.
	if sp.Active() && useCache {
		after := ec.Cache.Stats()
		if d := after.Evictions - statsBefore.Evictions; d > 0 {
			sp.SetInt("cache.evictions", d)
		}
		if d := after.Invalidations - statsBefore.Invalidations; d > 0 {
			sp.SetInt("cache.invalidations", d)
		}
	}

	return NewRelation(out)
}

// work claims slices off the cursor until none is left and runs the current
// phase on each.
func (st *scanState) work() error {
	for i := int(st.next.Add(1)) - 1; i < len(st.results); i = int(st.next.Add(1)) - 1 {
		var err error
		if st.gather {
			err = st.gatherSlice(i)
		} else {
			err = st.filterTraced(i)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// filterTraced runs filterSlice on slice i under a slice span that reports
// the slice's counters.
func (st *scanState) filterTraced(i int) error {
	var ssp obs.SpanRef
	if st.ec.Trace != nil {
		// BeginChild keeps concurrent slice spans off the nesting stack.
		ssp = st.ec.Trace.BeginChild(st.sp, obs.KindSlice, fmt.Sprintf("slice %d", i))
	}
	defer ssp.End()
	err := st.filterSlice(i)
	if res := &st.results[i]; ssp.Active() {
		ssp.SetInt("rows.scanned", res.rowsScanned)
		ssp.SetInt("rows.qualified", res.rowsQualified)
		ssp.SetInt("blocks.accessed", res.blocksAccessed)
		ssp.SetInt("blocks.pruned.zonemap", res.blocksZonePruned)
		ssp.SetInt("blocks.pruned.cache", res.blocksCachePruned)
		ssp.SetInt("blocks.decoded", res.blocksDecoded)
		ssp.SetInt("blocks.kernel_encoded", res.blocksKernel)
		ssp.SetInt("rows.decoded", res.rowsDecoded)
	}
	return err
}

// insertArgs returns what Cache.Insert takes from a scan's slices: their
// plain and semi-join ranges, and their row counts as watermarks. Extending
// an entry needs none of it.
func insertArgs(results []sliceScanResult) (plain, sj [][]storage.RowRange, watermarks []int) {
	n := len(results)
	plain, sj, watermarks = make([][]storage.RowRange, n), make([][]storage.RowRange, n), make([]int, n)
	for i := range results {
		plain[i], sj[i], watermarks[i] = results[i].plainRanges, results[i].sjRanges, results[i].numRows
	}
	return plain, sj, watermarks
}

// rangeRecorder accumulates qualifying global row numbers into merged
// ranges, clipped to the rows at or beyond from: the cache takes no range
// before an entry's watermark, and none at all when from is past every row.
type rangeRecorder struct {
	from   int
	ranges []storage.RowRange
}

func (r *rangeRecorder) add(start, end int) {
	if end <= r.from {
		return
	}
	start = max(start, r.from)
	if n := len(r.ranges); n > 0 && r.ranges[n-1].End == start {
		r.ranges[n-1].End = end
		return
	}
	r.ranges = append(r.ranges, storage.RowRange{Start: start, End: end})
}

// addSel records block-relative selected rows as global ranges.
func (r *rangeRecorder) addSel(base int, sel []int) {
	if len(sel) == 0 || base+sel[len(sel)-1] < r.from {
		return
	}
	i := 0
	for i < len(sel) {
		j := i + 1
		for j < len(sel) && sel[j] == sel[j-1]+1 {
			j++
		}
		r.add(base+sel[i], base+sel[j-1]+1)
		i = j
	}
}

// filterSlice is the scan's phase 1 for one slice: the two-step scan over
// its candidate ranges (scr.cands), visiting only blocks that hold a
// candidate row and gathering nothing:
//
//  1. the block's candidates seed a selection bitmap (storage.BlockMask);
//     zone-map elimination (bound.Prune) may drop the block;
//  2. every encoded-domain kernel ANDs its predicate into the bitmap directly
//     on the block's compressed form (no decode); kernels without support for
//     a block's encoding are collected as per-block fallback leaves;
//  3. the bitmap is turned into row ranges once. When nothing needs
//     row-at-a-time work (no residual, no fallbacks, no semi-joins), the
//     dense fast path records those ranges outright — bypassing
//     rangeRecorder.addSel — and keeps the runs MVCC leaves visible;
//  4. otherwise the bitmap also becomes a selection vector, the needed
//     columns are partially decoded over just the surviving ranges, and the
//     residual + fallbacks + semi-joins run vectorized; the visible
//     survivors' runs are kept.
//
// The runs of each block's qualifying visible rows are kept, in row order,
// in scr.runs for gatherSlice.
//
// filterSlice is the per-slice hot loop: everything it touches works out of
// the pooled scanScratch, so a steady-state warm scan allocates nothing here
// (see TestHotPathAllocs and TestKernelWarmScanAllocs).
func (st *scanState) filterSlice(i int) error {
	ec, slice, res := st.ec, st.tbl.Slice(i), &st.results[i]
	scr := res.scratch
	ctx, candidates := scr.ctx, scr.cands
	scr.runs = scr.runs[:0]

	// loadColSpans partially decodes column ci over the given block-relative
	// spans into the per-column scratch vector (values land at their
	// block-relative offsets, so selection vectors index it directly).
	loadColSpans := func(blk, ci int, spans []storage.RowRange) {
		if scr.loaded[ci] {
			return
		}
		scr.loaded[ci] = true
		scr.markAccessed(ci, res)
		scr.markDecoded(ci, res)
		col := slice.Column(ci)
		if st.tbl.ColumnType(ci) == storage.Float64 {
			if scr.floats[ci] == nil {
				scr.floats[ci] = make([]float64, storage.BlockSize)
			}
			vec := scr.floats[ci]
			for _, sp := range spans {
				if sp.Start < sp.End {
					res.rowsDecoded += int64(col.ReadFloatRange(blk, sp.Start, sp.End, vec[sp.Start:sp.End]))
				}
			}
			ctx.SetFloat(ci, vec)
		} else {
			if scr.ints[ci] == nil {
				scr.ints[ci] = make([]int64, storage.BlockSize)
			}
			vec := scr.ints[ci]
			for _, sp := range spans {
				if sp.Start < sp.End {
					res.rowsDecoded += int64(col.ReadIntRange(blk, sp.Start, sp.End, vec[sp.Start:sp.End]))
				}
			}
			ctx.SetInt(ci, vec)
		}
	}

	plainRec := rangeRecorder{from: res.plainFrom, ranges: scr.plainRanges[:0]}
	sjRec := rangeRecorder{from: res.sjFrom, ranges: scr.sjRanges[:0]}
	numRows := res.numRows
	insXIDs := slice.InsertXIDs()
	delXIDs := slice.DeleteXIDs() // nil: no row of this slice was ever deleted
	snap := ec.Snapshot
	plan, sjs := st.plan, st.sjs
	kernels := plan.Kernels
	scr.bp.slice = slice
	mask := &scr.mask

	// The loop is candidate-driven: it jumps from one block that holds
	// candidate rows to the next, so a hit that leaves three candidate blocks
	// runs three iterations however many blocks the slice has. pos is the
	// first row not yet covered; candidates before it are spent.
	//
	// sinceCheck counts the candidate rows scanned since the last
	// cancellation check; it starts full so the first block checks, and a
	// check runs whenever the next block would take it past cancelCheckRows.
	// gatherSlice carries on the count. Execute surfaces the error before any
	// cache insert/extend, so an aborted slice never pollutes the cache with
	// partial ranges.
	sinceCheck := cancelCheckRows
	ci, pos := 0, 0
	for ci < len(candidates) {
		if candidates[ci].End <= pos {
			ci++
			continue
		}
		if candidates[ci].Start > pos {
			pos = candidates[ci].Start
		}
		if pos >= numRows {
			break
		}
		blk := pos / storage.BlockSize
		base := blk * storage.BlockSize
		blkEnd := base + storage.BlockSize
		if blkEnd > numRows {
			blkEnd = numRows
		}
		// Seed the block's selection bitmap from the candidates inside it.
		*mask = storage.BlockMask{}
		candRows := 0
		for j := ci; j < len(candidates) && candidates[j].Start < blkEnd; j++ {
			lo, hi := candidates[j].Start, candidates[j].End
			if lo < pos {
				lo = pos
			}
			if hi > blkEnd {
				hi = blkEnd
			}
			if lo < hi {
				mask.SetRange(lo-base, hi-base)
				candRows += hi - lo
			}
		}
		pos = blkEnd
		if candRows == 0 {
			continue // only empty candidate ranges fell in this block
		}
		res.blocksVisited++
		if sinceCheck+candRows > cancelCheckRows {
			if err := ec.Cancelled(); err != nil {
				return err
			}
			sinceCheck = 0
		}
		sinceCheck += candRows

		// Step (1 of the two-step scan): zone-map block elimination.
		scr.bp.block = blk
		if st.bound.Prune(&scr.bp) {
			res.blocksZonePruned++
			continue
		}
		res.rowsScanned += int64(candRows)

		scr.resetBlock()
		ctx.N = blkEnd - base

		// Step (2a): every encoded-domain kernel ANDs its predicate into the
		// bitmap in compressed form. A kernel that lacks support for this
		// block's encoding joins the fallback list and re-runs vectorized
		// below.
		failed := scr.failed[:0]
		for ki := range kernels {
			if mask.Empty() {
				break
			}
			k := &kernels[ki]
			if slice.Column(k.Col).EvalPredMask(blk, &k.Pred, mask) {
				scr.markAccessed(k.Col, res)
				res.blocksKernel++
			} else {
				failed = append(failed, ki)
			}
		}
		scr.failed = failed
		if mask.Empty() {
			continue // kernels proved no candidate row qualifies
		}
		// The bitmap becomes row ranges exactly once, here.
		spans := mask.AppendRanges(scr.spans[:0], 0)
		scr.spans = spans

		if plan.Residual == nil && len(failed) == 0 && len(sjs) == 0 {
			// Step (2b), dense fast path: the surviving spans are exactly the
			// qualifying rows (pre-visibility). Record them as ranges without
			// materializing a selection vector, then keep their visible runs
			// (§4.3.2) as output.
			for _, sp := range spans {
				plainRec.add(base+sp.Start, base+sp.End)
			}
			kept := 0
			for _, sp := range spans {
				runStart := -1
				for r := sp.Start; r < sp.End; r++ {
					row := base + r
					if insXIDs[row] <= snap && (delXIDs == nil || delXIDs[row] == 0 || delXIDs[row] > snap) {
						if runStart < 0 {
							runStart = r
						}
					} else if runStart >= 0 {
						kept += scr.keep(blk, runStart, r)
						runStart = -1
					}
				}
				if runStart >= 0 {
					kept += scr.keep(blk, runStart, sp.End)
				}
			}
			st.countOutput(kept, scr, res)
			continue
		}

		// Step (2c), vectorized path: the bitmap also becomes a selection
		// vector, and fallbacks, the residual, and semi-joins run over it.
		sel := mask.AppendRows(scr.sel[:0])
		scr.sel = sel[:0]
		for _, ki := range failed {
			if len(sel) == 0 {
				break
			}
			k := &kernels[ki]
			loadColSpans(blk, k.Col, spans)
			sel = k.Fallback.Eval(ctx, sel)
		}
		if plan.Residual != nil && len(sel) > 0 {
			for _, colIdx := range plan.ResidualCols {
				loadColSpans(blk, colIdx, spans)
			}
			sel = plan.Residual.Eval(ctx, sel)
		}
		plainRec.addSel(base, sel)

		// Semi-join filters (§4.4).
		for j, sj := range sjs {
			if len(sel) == 0 {
				break
			}
			keyCol := st.sjKeyCols[j]
			loadColSpans(blk, keyCol, spans)
			vec := ctx.Ints(keyCol)
			k := 0
			if sj.stringKeys {
				memo := st.sjMemos[j]
				dict := ctx.Dict(keyCol)
				for _, r := range sel {
					code := vec[r]
					var m bool
					if int(code) < len(memo) {
						m = memo[code]
					} else {
						m = sj.filter.MayContain(hashString(dict.Value(code)))
					}
					if m {
						sel[k] = r
						k++
					}
				}
			} else {
				for _, r := range sel {
					if sj.filter.MayContainInt(vec[r]) {
						sel[k] = r
						k++
					}
				}
			}
			sel = sel[:k]
		}
		if len(sjs) > 0 {
			sjRec.addSel(base, sel)
		}

		// MVCC visibility (§4.3.2): deleted rows inside cached ranges are
		// eliminated here, which is what keeps entries valid across deletes.
		k := 0
		for _, r := range sel {
			row := base + r
			if insXIDs[row] <= snap && (delXIDs == nil || delXIDs[row] == 0 || delXIDs[row] > snap) {
				sel[k] = r
				k++
			}
		}
		sel = sel[:k]
		// The visible survivors' runs are the block's output rows.
		for i := 0; i < len(sel); {
			j := i + 1
			for j < len(sel) && sel[j] == sel[j-1]+1 {
				j++
			}
			scr.keep(blk, sel[i], sel[j-1]+1)
			i = j
		}
		st.countOutput(len(sel), scr, res)
	}

	// Every block the loop did not visit held no candidate row: the cached
	// ranges (a predicate-cache hit) saved it outright.
	res.blocksCachePruned = int64((numRows+storage.BlockSize-1)/storage.BlockSize) - res.blocksVisited
	res.plainRanges, scr.plainRanges = plainRec.ranges, plainRec.ranges
	res.sjRanges, scr.sjRanges = sjRec.ranges, sjRec.ranges
	res.sinceCheck = sinceCheck
	return nil
}

// countOutput adds a block's n output rows to the counters, with what
// gatherSlice will read of them: each projected column's (column, block) pair
// once, however often the filter touched it, and every row decoded.
func (st *scanState) countOutput(n int, scr *scanScratch, res *sliceScanResult) {
	if n == 0 {
		return
	}
	res.rowsQualified += int64(n)
	for _, ci := range st.src {
		if ci != rowIDCol {
			scr.markAccessed(ci, res)
			scr.markDecoded(ci, res)
			res.rowsDecoded += int64(n)
		}
	}
}

// gatherSlice is the scan's phase 2 for slice i: it decodes every projected
// column over the output runs filterSlice kept, straight from the compressed
// blocks into rows [res.off, res.off+n) of the output columns, and writes the
// rowid column from row positions. Runs go in chunks of at most
// cancelCheckRows rows, a column at a time, with a cancellation check on
// filterSlice's countdown whenever a chunk would take it past
// cancelCheckRows.
func (st *scanState) gatherSlice(i int) error {
	slice, res := st.tbl.Slice(i), &st.results[i]
	runs := res.scratch.runs
	off, sinceCheck := res.off, res.sinceCheck
	for len(runs) > 0 {
		k, n := 1, runs[0].len()
		for k < len(runs) && n+runs[k].len() <= cancelCheckRows {
			n += runs[k].len()
			k++
		}
		if sinceCheck+n > cancelCheckRows {
			if err := st.ec.Cancelled(); err != nil {
				return err
			}
			sinceCheck = 0
		}
		sinceCheck += n
		for j, ci := range st.src {
			gatherRuns(&st.out[j], slice, i, ci, runs[:k], off)
		}
		runs, off = runs[k:], off+n
	}
	return nil
}

// gatherRuns writes column ci's values of the rows of runs — the rowids
// when ci is rowIDCol — to dst from row off on.
func gatherRuns(dst *RelCol, slice *storage.Slice, sliceIdx, ci int, runs []outRun, off int) {
	switch {
	case ci == rowIDCol:
		for _, run := range runs {
			base := int(run.blk) * storage.BlockSize
			for r := base + int(run.lo); r < base+int(run.hi); r++ {
				dst.Ints[off] = int64(sliceIdx)<<32 | int64(r)
				off++
			}
		}
	case dst.Type == storage.Float64:
		col := slice.Column(ci)
		for _, run := range runs {
			n := run.len()
			col.ReadFloatRange(int(run.blk), int(run.lo), int(run.hi), dst.Floats[off:off+n])
			off += n
		}
	default:
		col := slice.Column(ci)
		for _, run := range runs {
			n := run.len()
			col.ReadIntRange(int(run.blk), int(run.lo), int(run.hi), dst.Ints[off:off+n])
			off += n
		}
	}
}

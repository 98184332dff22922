package engine

import (
	"fmt"
	"strings"
	"testing"

	"github.com/predcache/predcache/internal/bloom"
	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/storage"
)

// TestHotPathAllocs pins the exact allocation count of the engine's inner
// loops. Hashing, key lookup, morsel selection, accumulation, a join
// level's probe, output gathering, an aggregation's gather of a chain's
// tuples or of a scan's output runs, a scan's filter and gather phases and
// a predicate-cache hit allocate nothing; a join chain's probe morsel
// allocates exactly its output lists. A construct that allocates per call
// (an FNV hasher, a []byte copy of a key, a boxed value, a fresh slice grown
// row by row) moves the count on the first run.
func TestHotPathAllocs(t *testing.T) {
	const n = morselSize
	dict := storage.NewDict()
	keys, strs, vals := make([]int64, n), make([]int64, n), make([]float64, n)
	sel := make([]int, n)
	gidx := make([]int32, n)
	for i := range keys {
		keys[i] = int64(i)
		strs[i] = dict.Code(fmt.Sprintf("key-%d", i%64))
		vals[i] = float64(i)
		sel[i] = i
		gidx[i] = int32(i % 4)
	}
	rel, err := NewRelation([]RelCol{
		{Name: "k", Type: storage.Int64, Ints: keys},
		{Name: "s", Type: storage.String, Ints: strs, Dict: dict},
		{Name: "v", Type: storage.Float64, Floats: vals},
	})
	if err != nil {
		t.Fatal(err)
	}
	table := func(cols ...string) (*joinTable, keyCols) {
		_, keys, err := relKeyCols(rel, cols, "join key")
		if err != nil {
			t.Fatal(err)
		}
		jt, err := buildJoinTable(&ExecCtx{}, rel, keys, &parAccounting{workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return jt, keys
	}
	intTable, intKeys := table("k")
	compTable, compKeys := table("k", "s")
	_, groupKeys, err := relKeyCols(rel, []string{"s", "v"}, "group-by column")
	if err != nil {
		t.Fatal(err)
	}
	sumAgg := []*boundAgg{{spec: AggSpec{Func: AggSum}}}
	groups := newAggTable(len(groupKeys), 0, sumAgg)
	for _, row := range sel {
		groups.groupOf(groupKeys, row, int32(row))
	}
	bounds, err := bindFused([]expr.Pred{expr.Cmp("k", expr.Ge, expr.Int(100))}, rel)
	if err != nil {
		t.Fatal(err)
	}
	ctx := rel.blockCtx()
	// A scratch held for the whole test rather than drawn from the pool per
	// run: the race detector makes sync.Pool drop items at random.
	scr := &morselScratch{}

	// A one-level chain probing the int table, keeping the probe and build
	// rows; the level buffers are grown by a first run.
	chain := &joinChain{levels: []chainLevel{{j: &Join{Type: InnerJoin}, jt: intTable, keys: intKeys, carry: []bool{true, true}}}}
	counts := make([]int, 1)
	tuples := chain.morselTuples(scr, sel, counts)
	par, bld := probeLevel(InnerJoin, intTable, intKeys, sel, len(sel), nil, nil)
	dstInts := RelCol{Type: storage.Int64, Ints: make([]int64, len(tuples[0]))}
	dstFloats := RelCol{Type: storage.Float64, Floats: make([]float64, len(tuples[1]))}
	probeCol, buildCol := chainCol{RelCol: rel.Col(0)}, chainCol{RelCol: rel.Col(2), src: 1}
	// An aggregation reading that chain's tuples in place, keyed on the
	// probe column, its argument the build column.
	chainIn := newChainInput(&joinChain{tuples: [][][]int32{tuples}, offs: []int{0, len(tuples[0])},
		out: []chainCol{probeCol, buildCol}})
	chainIn.keys, chainIn.read = []int{0}, []int{0, 1}
	seg := []uint16{5, 9, 4000}

	// One typed state column per function, four groups each.
	state := func(fn AggFunc, intArg bool) *aggCol {
		s := &aggCol{fn: fn, intArg: intArg}
		s.resize(4, 4)
		return s
	}
	count, sum, minInt, maxFloat, distinct := state(AggCount, false), state(AggSum, false),
		state(AggMin, true), state(AggMax, false), state(AggCountDistinct, false)
	longKey := strings.Repeat("join-key/", 8) // past the compiler's 32-byte stack buffer
	var sink uint64

	cases := []allocCase{
		{"hashString", 0, func() { sink += hashString(longKey) }},
		{"accumulate/count", 0, func() { accumulate(count, gidx, keys, vals) }},
		{"accumulate/sum", 0, func() { accumulate(sum, gidx, keys, vals) }},
		{"accumulate/min-int", 0, func() { accumulate(minInt, gidx, keys, vals) }},
		{"accumulate/max-float", 0, func() { accumulate(maxFloat, gidx, keys, vals) }},
		// The first run builds each group's distinct set; later runs see only
		// values already in it.
		{"accumulate/count-distinct-seen", 0, func() { accumulate(distinct, gidx, keys, vals) }},
		{"morselSel", 0, func() { morselSel(scr, ctx, bounds, 0, n) }},
		{"joinTable.first/int", 0, func() {
			for _, row := range sel {
				sink += uint64(intTable.first(intKeys, row))
			}
		}},
		{"joinTable.first/composite", 0, func() {
			for _, row := range sel {
				sink += uint64(compTable.first(compKeys, row))
			}
		}},
		// A probe lookup straight on one partition's key table.
		{"keyTable.find", 0, func() {
			p := &compTable.parts[0]
			for _, row := range sel {
				sink += uint64(p.keys.find(compKeys, row, compKeys.hash(row)))
			}
		}},
		// Every group exists already: a warm lookup adds no key and no state.
		{"aggTable.groupOf/warm", 0, func() {
			for _, row := range sel {
				sink += uint64(groups.groupOf(groupKeys, row, int32(row)))
			}
		}},
		// Gathering a chunk's keys and arguments into scratch, every tuple
		// of the morsel or a partition's segment of it.
		{"chainInput.rows/all", 0, func() { chainIn.rows(scr, 0, nil, false) }},
		{"chainInput.rows/seg", 0, func() { chainIn.rows(scr, 0, seg, false) }},
		{"gatherOut/probe-ints", 0, func() { gatherOut(&dstInts, &probeCol, tuples[0], 0) }},
		{"gatherOut/build-floats", 0, func() { gatherOut(&dstFloats, &buildCol, tuples[1], 0) }},
		// A level probes into buffers it reuses; only the chain's top-level
		// output lists are allocated, one per kept source plus their index.
		{"probeLevel/inner", 0, func() { par, bld = probeLevel(InnerJoin, intTable, intKeys, sel, len(sel), par[:0], bld[:0]) }},
		{"probeLevel/semi", 0, func() { par, _ = probeLevel(SemiJoin, intTable, intKeys, sel, len(sel), par[:0], nil) }},
		{"joinChain.morselTuples/inner", 3, func() { tuples = chain.morselTuples(scr, sel, counts) }},
	}
	for _, tc := range append(cases, scanPhaseRuns(t)...) {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(10, tc.fn); got != tc.want {
				t.Errorf("%v allocs per run, want %v", got, tc.want)
			}
		})
	}
}

// allocCase is one row of TestHotPathAllocs: fn allocates want times a run.
type allocCase struct {
	name string
	want float64
	fn   func()
}

// scanPhaseRuns returns warm runs of a scan's two phases over loopTable's
// 2,000 sealed blocks, none of which allocates:
//
//   - filterSlice with "a = 5 and b = 77", which one row passes, over that
//     row's block (a predicate-cache hit's shape) and over the whole slice;
//   - a semi-join-entry hit on that block, its semi-join filter passing the
//     row;
//   - filterSlice with "a = 5", which one row of every block passes, keeping
//     2,000 output runs;
//   - gatherSlice of those 2,000 runs into an id column;
//   - scanInput.rows over the same runs, an aggregate reading them in
//     place: the one morsel whole, and a partition's segment of it;
//   - a bitmap-entry and a range-entry hit on a third of the blocks,
//     through Cache.Best and Candidates.AppendRanges into a reused list.
//
// The runs hold their scratches rather than drawing them from the pool per
// run (the race detector makes sync.Pool drop items at random), so only the
// loops are measured; the ranges a filter run records for the cache live in
// the scratch too. They report a wrong result with Errorf, since they run in
// a subtest of t.
func scanPhaseRuns(t *testing.T) []allocCase {
	const blocks = 2000
	cat, tbl := loopTable(t, blocks*storage.BlockSize, 1)
	ec := &ExecCtx{Catalog: cat, Snapshot: cat.Snapshot()}
	slice := tbl.Slice(0)
	out, src, err := scanColumns(tbl, []string{"id"}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	pointScr := acquireScanScratch(tbl)
	everyScr := acquireScanScratch(tbl)
	state := func(p expr.Pred, sjs []*semiJoinFilter) *scanState {
		bound, err := expr.Bind(p, tbl)
		if err != nil {
			t.Fatal(err)
		}
		return &scanState{ec: ec, tbl: tbl, bound: bound, plan: expr.PlanKernels(bound), sjs: sjs,
			sjKeyCols: make([]int, len(sjs)), sjMemos: make([][]bool, len(sjs)), out: out, src: src,
			results: make([]sliceScanResult, 1)}
	}
	// filter records the cache's ranges from row from on: one range per
	// qualifying row here, or none when from is past the slice's last row.
	filter := func(st *scanState, scr *scanScratch, cands storage.RowRange, from int, wantRows int64) func() {
		wantRanges := int(wantRows)
		if from >= slice.NumRows() {
			wantRanges = 0
		}
		return func() {
			scr.cands = append(scr.cands[:0], cands)
			res := &st.results[0]
			*res = sliceScanResult{numRows: slice.NumRows(), plainFrom: from, sjFrom: from, scratch: scr}
			if err := st.filterSlice(0); err != nil {
				t.Error(err)
			} else if res.rowsQualified != wantRows || len(scr.runs) != int(wantRows) {
				t.Errorf("filter kept %d rows in %d runs, want %d", res.rowsQualified, len(scr.runs), wantRows)
			} else if len(res.plainRanges) != wantRanges || len(res.sjRanges) != 0 {
				t.Errorf("filter recorded %d plain and %d semi-join ranges, want %d and 0", len(res.plainRanges), len(res.sjRanges), wantRanges)
			}
		}
	}
	// 1001k+5 ≡ 77 (mod 2000) at k = 72: the qualifying row's block.
	const hitBlock = 72
	sj := &semiJoinFilter{keyCol: "id", filter: bloom.New(1, 0.01)}
	sj.filter.AddInt(hitBlock*storage.BlockSize + 5)
	point := expr.And(expr.Cmp("a", expr.Eq, expr.Int(5)), expr.Cmp("b", expr.Eq, expr.Int(77)))
	block := storage.RowRange{Start: hitBlock * storage.BlockSize, End: (hitBlock + 1) * storage.BlockSize}
	all := storage.RowRange{Start: 0, End: blocks * storage.BlockSize}
	every := state(expr.Cmp("a", expr.Eq, expr.Int(5)), nil)
	fillEvery := filter(every, everyScr, all, 0, blocks)
	fillEvery() // the output runs the gather and scanInput read
	out[0].Ints = make([]int64, blocks)
	every.total = blocks
	in := newScanInput(every)
	in.keys, in.read = []int{0}, []int{0}
	mscr := &morselScratch{}
	// rows checks the id values a scanInput.rows call gathered and selected:
	// a segment's rows alone, in its order.
	rows := func(seg []uint16) func() {
		want := [3]int64{5, 1005, 1999005} // the whole morsel's first two and last
		if seg != nil {
			want = [3]int64{5*storage.BlockSize + 5, 9*storage.BlockSize + 5, 1500*storage.BlockSize + 5}
		}
		return func() {
			ctx, keys, sel, firsts := in.rows(mscr, 0, seg, false)
			got := [3]int64{keys[0].ints[sel[0]], ctx.Ints(0)[sel[1]], ctx.Ints(0)[sel[len(sel)-1]]}
			if seg == nil && len(sel) != blocks || seg != nil && (firsts[2] != 1500 || ctx.N != len(seg)) || got != want {
				t.Errorf("scanInput.rows selected %d rows, ids %v, want %v", len(sel), got, want)
			}
		}
	}
	// hit serves an entry holding the qualifying row of every third block.
	hit := func(kind core.EntryKind) func() {
		var ranges []storage.RowRange
		for k := 0; k < blocks; k += 3 {
			ranges = append(ranges, storage.RowRange{Start: k*storage.BlockSize + 5, End: k*storage.BlockSize + 6})
		}
		cache := core.NewCache(core.Config{Kind: kind})
		key := core.Key{Table: "loop", Predicate: "(= a 5)"}
		cache.Insert(key, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{ranges}, []int{slice.NumRows()})
		keys := []string{key.String()}
		var dst []storage.RowRange
		return func() {
			cand, ok := cache.Best(keys)
			if !ok {
				t.Error("miss")
				return
			}
			if dst = cand.AppendRanges(0, dst[:0]); len(dst) != len(ranges) {
				t.Errorf("%d candidate ranges, want %d", len(dst), len(ranges))
			}
		}
	}
	return []allocCase{
		{"filterSlice/one-block", 0, filter(state(point, nil), pointScr, block, 0, 1)},
		{"filterSlice/2000-blocks", 0, filter(state(point, nil), pointScr, all, 0, 1)},
		// A semi-join-entry hit with no rows past the watermark.
		{"filterSlice/sj-entry-hit", 0, filter(state(point, []*semiJoinFilter{sj}), pointScr, block, slice.NumRows(), 1)},
		{"filterSlice/2000-output-runs", 0, fillEvery},
		{"gatherSlice/2000-runs", 0, func() {
			every.results[0].off = 0
			if err := every.gatherSlice(0); err != nil {
				t.Error(err)
				return
			}
			for k, id := range out[0].Ints {
				if want := int64(k*storage.BlockSize + 5); id != want {
					t.Errorf("gathered id %d at row %d, want %d", id, k, want)
					return
				}
			}
		}},
		{"scanInput.rows/all", 0, rows(nil)},
		{"scanInput.rows/seg", 0, rows([]uint16{5, 9, 1500})},
		{"Cache.Best+AppendRanges/bitmap-hit", 0, hit(core.BitmapIndex)},
		{"Cache.Best+AppendRanges/range-hit", 0, hit(core.RangeIndex)},
	}
}

// TestJoinPartitionsSizedExactly builds a join table over unique keys on
// one worker and on four, and requires every partition's key words, chain
// heads and chain tails to end at exactly the capacity they were given:
// pass 1 counts each partition's rows and one worker's single partition
// takes every row, so no partition outgrows its reservation and none is
// sized for more rows than it gets.
func TestJoinPartitionsSizedExactly(t *testing.T) {
	const n = 5 * morselSize
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) * 3
	}
	rel, err := NewRelation([]RelCol{{Name: "k", Type: storage.Int64, Ints: keys}})
	if err != nil {
		t.Fatal(err)
	}
	_, k, err := relKeyCols(rel, []string{"k"}, "join key")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ workers, minParts, maxParts int }{{1, 1, 1}, {4, 2, maxPartitions}} {
		jt, err := buildJoinTable(&ExecCtx{}, rel, k, &parAccounting{workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(jt.parts) < tc.minParts || len(jt.parts) > tc.maxParts {
			t.Fatalf("workers=%d: %d partitions", tc.workers, len(jt.parts))
		}
		rows := 0
		for pi, p := range jt.parts {
			rows += len(p.heads)
			if cap(p.keys.words) != len(p.keys.words) || cap(p.heads) != len(p.heads) || cap(p.tails) != len(p.tails) {
				t.Errorf("workers=%d partition %d: words %d/%d, heads %d/%d, tails %d/%d (len/cap)", tc.workers, pi,
					len(p.keys.words), cap(p.keys.words), len(p.heads), cap(p.heads), len(p.tails), cap(p.tails))
			}
		}
		if rows != n {
			t.Fatalf("workers=%d: partitions hold %d keys, want %d", tc.workers, rows, n)
		}
	}
}

package engine

import (
	"fmt"
	"strings"
	"testing"

	"github.com/predcache/predcache/internal/bloom"
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/storage"
)

// TestHotPathAllocs pins the exact allocation count of the engine's inner
// loops. Hashing, key lookup, morsel selection, accumulation, a join
// level's probe, output gathering, an aggregation's gather of a chain's
// tuples and the per-block scan loop allocate nothing; a join chain's probe morsel allocates exactly its output lists. A construct that allocates per call
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
	groups := newAggTable(len(groupKeys), sumAgg)
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
	chainIn := &chainInput{tuples: [][][]int32{tuples}, offs: []int{0, len(tuples[0])},
		cols: []chainCol{probeCol, buildCol}, keys: []int{0}, read: []int{0, 1}}
	seg := []int32{5, 9, 4000}

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

	scanOneBlock, scanAllBlocks, scanSJHit := scanSliceRuns(t)
	oneBlock := testing.AllocsPerRun(10, scanOneBlock)
	t.Logf("scanSlice over one candidate block: %v allocs per run", oneBlock)

	for _, tc := range []struct {
		name string
		want float64
		fn   func()
	}{
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
		// scanSlice over ~2,000 candidate blocks allocates what it does over
		// one: nothing per block.
		{"scanSlice/2000-blocks", oneBlock, scanAllBlocks},
		// A warm semi-join-entry hit with no rows past the watermark: the
		// cache takes no range, so the scan records none.
		{"scanSlice/sj-entry-hit", 0, scanSJHit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(10, tc.fn); got != tc.want {
				t.Errorf("%v allocs per run, want %v", got, tc.want)
			}
		})
	}
}

// scanSliceRuns returns three warm runs of scanSlice over loopTable's 2,000
// sealed blocks with the filter "a = 5 and b = 77", which one row passes:
// one whose candidates are that row's block (a predicate-cache hit's
// shape), one whose candidates are the whole slice, and a semi-join-entry
// hit on that block, its semi-join filter passing the row, that records
// ranges only past the slice's last row. All share one scratch, so only the
// loop itself is measured. They report a wrong result with Errorf, since
// they may run in a subtest of t.
func scanSliceRuns(t *testing.T) (oneBlock, allBlocks, sjHit func()) {
	const blocks = 2000
	cat, tbl := loopTable(t, blocks*storage.BlockSize, 1)
	bound, err := expr.Bind(expr.And(expr.Cmp("a", expr.Eq, expr.Int(5)), expr.Cmp("b", expr.Eq, expr.Int(77))), tbl)
	if err != nil {
		t.Fatal(err)
	}
	plan := expr.PlanKernels(bound)
	numCols := len(tbl.Schema())
	dicts := make([]*storage.Dict, numCols)
	scr := acquireScanScratch(numCols, dicts)
	rb, err := scr.relBuilderFor(tbl, []string{"id"}, "", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	scan := &Scan{Table: "loop"}
	ec := &ExecCtx{Catalog: cat, Snapshot: cat.Snapshot()}
	slice := tbl.Slice(0)
	// 1001k+5 ≡ 77 (mod 2000) at k = 72: the qualifying row's block.
	const hitBlock = 72
	sj := &semiJoinFilter{keyCol: "id", filter: bloom.New(1, 0.01)}
	sj.filter.AddInt(hitBlock*storage.BlockSize + 5)
	over := func(cands storage.RowRange, sjs []*semiJoinFilter, from int) func() {
		sjCols, sjMemos := make([]int, len(sjs)), make([][]bool, len(sjs))
		return func() {
			scr.cands = append(scr.cands[:0], cands)
			rb.cols[0].Ints = rb.cols[0].Ints[:0]
			res := sliceScanResult{rel: rb, numRows: slice.NumRows(), scratch: scr, plainFrom: from, sjFrom: from}
			if err := scan.scanSlice(ec, tbl, slice, bound, plan, sjs, sjCols, sjMemos, scr, &res); err != nil {
				t.Error(err)
			} else if len(rb.cols[0].Ints) != 1 || res.blocksVisited < 1 {
				t.Errorf("scan returned %d rows over %d blocks", len(rb.cols[0].Ints), res.blocksVisited)
			} else if from > 0 && len(res.plainRanges)+len(res.sjRanges) > 0 {
				t.Errorf("scan from row %d recorded %v and %v", from, res.plainRanges, res.sjRanges)
			}
		}
	}
	block := storage.RowRange{Start: hitBlock * storage.BlockSize, End: (hitBlock + 1) * storage.BlockSize}
	return over(block, nil, 0), over(storage.RowRange{Start: 0, End: blocks * storage.BlockSize}, nil, 0),
		over(block, []*semiJoinFilter{sj}, slice.NumRows())
}

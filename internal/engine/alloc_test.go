package engine

import (
	"fmt"
	"strings"
	"testing"

	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/storage"
)

// TestHotPathAllocs pins the exact allocation count of the engine's inner
// loops. Hashing, key lookup, morsel selection, accumulation, output
// gathering and the per-block scan loop allocate nothing; a probe morsel
// allocates exactly its output buffers. A construct that allocates per call
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
	groups := newAggTable(groupKeys, 1)
	for _, row := range sel {
		groups.groupOf(row)
	}
	bounds, err := bindFused([]expr.Pred{expr.Cmp("k", expr.Ge, expr.Int(100))}, rel)
	if err != nil {
		t.Fatal(err)
	}
	ctx := rel.blockCtx()
	// A scratch held for the whole test rather than drawn from the pool per
	// run: the race detector makes sync.Pool drop items at random.
	scr := &morselScratch{}

	inner, semi := &Join{Type: InnerJoin}, &Join{Type: SemiJoin}
	var out joinMorselOut
	inner.probeMorsel(intTable, intKeys, sel, true, &out)
	dstInts := RelCol{Type: storage.Int64, Ints: make([]int64, len(out.probe))}
	dstFloats := RelCol{Type: storage.Float64, Floats: make([]float64, len(out.probe))}
	probeSpec := joinOutSpec{src: rel.Col(0)}
	buildSpec := joinOutSpec{src: rel.Col(2), fromBuild: true}

	states := make([]aggState, 4)
	longKey := strings.Repeat("join-key/", 8) // past the compiler's 32-byte stack buffer
	var sink uint64

	scanOneBlock, scanAllBlocks := scanSliceRuns(t)
	oneBlock := testing.AllocsPerRun(10, scanOneBlock)
	t.Logf("scanSlice over one candidate block: %v allocs per run", oneBlock)

	for _, tc := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"hashString", 0, func() { sink += hashString(longKey) }},
		{"accumulate/count", 0, func() { accumulate(AggCount, false, states, 1, 0, gidx, keys, vals) }},
		{"accumulate/sum", 0, func() { accumulate(AggSum, false, states, 1, 0, gidx, keys, vals) }},
		{"accumulate/min-int", 0, func() { accumulate(AggMin, true, states, 1, 0, gidx, keys, vals) }},
		{"accumulate/max-float", 0, func() { accumulate(AggMax, false, states, 1, 0, gidx, keys, vals) }},
		// The first run builds each group's distinct set; later runs see only
		// values already in it.
		{"accumulate/count-distinct-seen", 0, func() { accumulate(AggCountDistinct, true, states, 1, 0, gidx, keys, vals) }},
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
				sink += uint64(groups.groupOf(row))
			}
		}},
		{"copyJoinOut/probe-ints", 0, func() { copyJoinOut(&dstInts, &probeSpec, &out, 0) }},
		{"copyJoinOut/build-floats", 0, func() { copyJoinOut(&dstFloats, &buildSpec, &out, 0) }},
		{"probeMorsel/inner", 2, func() { inner.probeMorsel(intTable, intKeys, sel, true, &out) }},
		{"probeMorsel/semi", 1, func() { semi.probeMorsel(intTable, intKeys, sel, false, &out) }},
		// scanSlice over ~2,000 candidate blocks allocates what it does over
		// one: nothing per block.
		{"scanSlice/2000-blocks", oneBlock, scanAllBlocks},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(10, tc.fn); got != tc.want {
				t.Errorf("%v allocs per run, want %v", got, tc.want)
			}
		})
	}
}

// scanSliceRuns returns two warm runs of scanSlice over loopTable's 2,000
// sealed blocks with the filter "a = 5 and b = 77", which one row passes:
// one whose candidates are that row's block (a predicate-cache hit's
// shape), and one whose candidates are the whole slice. Both share one
// scratch, so only the loop itself is measured. They report a wrong result
// with Errorf, since they may run in a subtest of t.
func scanSliceRuns(t *testing.T) (oneBlock, allBlocks func()) {
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
	over := func(cands storage.RowRange) func() {
		return func() {
			scr.cands = append(scr.cands[:0], cands)
			rb.cols[0].Ints = rb.cols[0].Ints[:0]
			res := sliceScanResult{rel: rb, numRows: slice.NumRows(), scratch: scr}
			if err := scan.scanSlice(ec, tbl, slice, bound, plan, nil, nil, nil, scr, &res); err != nil {
				t.Error(err)
			} else if len(rb.cols[0].Ints) != 1 || res.blocksVisited < 1 {
				t.Errorf("scan returned %d rows over %d blocks", len(rb.cols[0].Ints), res.blocksVisited)
			}
		}
	}
	// 1001k+5 ≡ 77 (mod 2000) at k = 72: the qualifying row's block.
	const hitBlock = 72
	return over(storage.RowRange{Start: hitBlock * storage.BlockSize, End: (hitBlock + 1) * storage.BlockSize}),
		over(storage.RowRange{Start: 0, End: blocks * storage.BlockSize})
}

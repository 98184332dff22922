package engine

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/storage"
)

// TestAggBytesPerGroup bounds what grouped aggregation allocates per
// group: growing a relation of distinct keys from 20k to 80k rows may add,
// per added group, at most four times its table bytes (the key word, a
// typed state per aggregate, its firstRow entry and two key-table slots)
// plus its output row and its partition-scatter slot. Four times: a
// doubling array's capacity is at most twice its length, and the arrays it
// outgrew add up to at most that capacity again. A state array that grew
// on its own, by append's smaller steps, or a state wider than its
// function needs, exceeds it. The input is materialized up front, so scan
// scratch stays out of the count.
func TestAggBytesPerGroup(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const smallGroups, largeGroups = 20000, 80000
	aggs := []AggSpec{
		{Func: AggCount, Name: "c"},
		{Func: AggSum, Arg: expr.Col("v"), Name: "s"},
		{Func: AggAvg, Arg: expr.Col("v"), Name: "a"},
	}
	bytes := func(groups, workers int) float64 {
		keys, vals := make([]int64, groups), make([]float64, groups)
		for i := range keys {
			keys[i] = int64(i * 7)
			vals[i] = float64(i%97) / 4
		}
		rel, err := NewRelation([]RelCol{
			{Name: "k", Type: storage.Int64, Ints: keys},
			{Name: "v", Type: storage.Float64, Floats: vals},
		})
		if err != nil {
			t.Fatal(err)
		}
		plan := &Agg{Input: &Materialized{Rel: rel}, GroupBy: []string{"k"}, Aggs: aggs}
		run := func() {
			out, err := plan.Execute(&ExecCtx{MaxWorkers: workers})
			if err != nil || out.NumRows() != groups {
				t.Fatalf("%v groups, err %v", out, err)
			}
		}
		run() // warm the scratch pools
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	// Per group: the key word, count 8 B, sum 8 B, avg 16 B, firstRow 4 B
	// and two int32 slots; the output row (key and three aggregates) and
	// the int32 the parallel path scatters it through.
	const table, output = 8 + 8 + 8 + 16 + 4 + 2*4, 4*8 + 4
	budget := float64(4*table + output)
	for _, workers := range []int{1, 4} {
		perGroup := (bytes(largeGroups, workers) - bytes(smallGroups, workers)) / (largeGroups - smallGroups)
		t.Logf("workers=%d: %.1f B allocated per added group, budget %.0f", workers, perGroup, budget)
		if perGroup > budget {
			t.Errorf("workers=%d: grouped aggregation allocates %.1f B per added group, budget %.0f", workers, perGroup, budget)
		}
	}
}

// TestGlobalAggOverJoinStaysMaterialized holds a global aggregate over a
// join to the partials it has always had: one per 4096 rows of the join's
// output, merged in order. Cutting them where the probe's morsels end
// instead, as aggregating a chain's tuples in place would, rounds the float
// sum differently on this data, which the test checks first.
func TestGlobalAggOverJoinStaysMaterialized(t *testing.T) {
	const rows = 6 * morselSize
	ids, dimIDs, prices := make([]int64, rows), make([]int64, rows), make([]float64, rows)
	for i := range ids {
		ids[i] = int64(i)
		dimIDs[i] = int64(i % 40)
		prices[i] = float64(i%1000)/7 + 1e6
	}
	probe, err := NewRelation([]RelCol{
		{Name: "id", Type: storage.Int64, Ints: ids},
		{Name: "dim_id", Type: storage.Int64, Ints: dimIDs},
		{Name: "price", Type: storage.Float64, Floats: prices},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := newTestDB(t, 10, 40, 1, 50)
	join := &Join{
		Left:     &Materialized{Rel: probe},
		Right:    &Filter{Input: &Scan{Table: "dims"}, Pred: expr.Cmp("d_rank", expr.Lt, expr.Int(60))},
		LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: InnerJoin,
	}
	out := execWith(t, d.cat, join, false, 0)
	outIDs, outPrices := out.ColByName("id").Ints, out.ColByName("price").Floats
	if out.NumRows() <= 2*morselSize || out.NumRows() >= rows-morselSize {
		t.Fatalf("test setup: the join keeps %d of %d rows", out.NumRows(), rows)
	}
	// Partials per 4096 output rows, and per probe morsel.
	var byOutput, byProbe float64
	partial := 0.0
	for r, p := range outPrices {
		partial += p
		if r%morselSize == morselSize-1 || r == len(outPrices)-1 {
			byOutput += partial
			partial = 0
		}
	}
	for r, p := range outPrices {
		partial += p
		if r == len(outPrices)-1 || outIDs[r+1]/morselSize != outIDs[r]/morselSize {
			byProbe += partial
			partial = 0
		}
	}
	if math.Float64bits(byOutput) == math.Float64bits(byProbe) {
		t.Fatal("test setup: both ways of cutting partials round alike")
	}
	plan := &Agg{Input: join, Aggs: []AggSpec{{Func: AggSum, Arg: expr.Col("price"), Name: "s"}}}
	for _, w := range []int{1, 2, 4, 7} {
		got := execWith(t, d.cat, plan, true, w).Col(0).Floats[0]
		if math.Float64bits(got) != math.Float64bits(byOutput) {
			t.Fatalf("workers=%d: sum %v (%x), want %v (%x) from partials per 4096 output rows", w,
				got, math.Float64bits(got), byOutput, math.Float64bits(byOutput))
		}
	}
}

// TestGlobalAggEmptyInput: a global aggregate over no rows is one row of
// zeros, for every function.
func TestGlobalAggEmptyInput(t *testing.T) {
	rel, err := NewRelation([]RelCol{
		{Name: "qty", Type: storage.Int64, Ints: []int64{}},
		{Name: "price", Type: storage.Float64, Floats: []float64{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&Agg{Input: &Materialized{Rel: rel}, Aggs: chainAggs("qty", "price")}).Execute(&ExecCtx{})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 {
		t.Fatalf("%d rows, want 1", out.NumRows())
	}
	for i := 0; i < out.NumCols(); i++ {
		if c := out.Col(i); (c.Type == storage.Float64 && math.Float64bits(c.Floats[0]) != 0) || (c.Type != storage.Float64 && c.Ints[0] != 0) {
			t.Errorf("%s = %v %v, want 0", c.Name, c.Ints, c.Floats)
		}
	}
}

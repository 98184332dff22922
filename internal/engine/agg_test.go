package engine

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/storage"
)

// TestAggBytesPerGroup bounds what grouped aggregation allocates per
// group: growing a relation of distinct keys from 20k to 80k rows may add,
// per added group, no more than the budget of its row, cold or warm. The
// cold row is a plan's first run, whose tables start small and double: at
// most four times its table bytes (the key word, a typed state per
// aggregate, its firstRow entry and two key-table slots) plus its output
// row and, on more than one worker, its partition-scatter slot; one worker
// has one partition and scatters nothing. Four times: a doubling array's
// capacity is at most twice its length, and the arrays it outgrew add up
// to at most that capacity again. A state array that grew on its own, by
// append's smaller steps, or a state wider than its function needs,
// exceeds it. The warm row is every later run, whose tables are sized for
// the groups the first run wrote: the table bytes once, with tableSize's
// sixteenth of slack, and up to four slots a group (an index at most half
// full, rounded up to a power of two), plus the output and scatter slot.
// The input is materialized up front and a first plan warms the scratch
// pools, so scan and morsel scratch stay out of the count.
func TestAggBytesPerGroup(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const smallGroups, largeGroups = 20000, 80000
	aggs := []AggSpec{
		{Func: AggCount, Name: "c"},
		{Func: AggSum, Arg: expr.Col("v"), Name: "s"},
		{Func: AggAvg, Arg: expr.Col("v"), Name: "a"},
	}
	bytes := func(groups, workers int) (cold, warm float64) {
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
		newPlan := func() *Agg {
			return &Agg{Input: &Materialized{Rel: rel}, GroupBy: []string{"k"}, Aggs: aggs}
		}
		alloc := func(plan *Agg, runs int) float64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				out, err := plan.Execute(&ExecCtx{MaxWorkers: workers})
				if err != nil || out.NumRows() != groups {
					t.Fatalf("%v groups, err %v", out, err)
				}
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
		}
		alloc(newPlan(), 1) // warm the scratch pools
		plan := newPlan()
		cold = alloc(plan, 1)
		return cold, alloc(plan, 5)
	}
	// Per group: the key word, count 8 B, sum 8 B, avg 16 B, firstRow 4 B
	// and a key-table slot of 4 B; the output row (key and three
	// aggregates) and the int32 the partitioned path scatters it through.
	const table, slot, output, scatter = 8 + 8 + 8 + 16 + 4, 4, 4 * 8, 4
	for _, workers := range []int{1, 4} {
		out := float64(output)
		if workers > 1 {
			out += scatter
		}
		coldBudget := 4*(table+2*slot) + out
		warmBudget := float64(table+4*slot)*17/16 + out
		smallCold, smallWarm := bytes(smallGroups, workers)
		largeCold, largeWarm := bytes(largeGroups, workers)
		for _, row := range []struct {
			name         string
			small, large float64
			budget       float64
		}{{"cold", smallCold, largeCold, coldBudget}, {"warm", smallWarm, largeWarm, warmBudget}} {
			perGroup := (row.large - row.small) / (largeGroups - smallGroups)
			t.Logf("workers=%d %s: %.1f B allocated per added group, budget %.1f", workers, row.name, perGroup, row.budget)
			if perGroup > row.budget {
				t.Errorf("workers=%d %s: grouped aggregation allocates %.1f B per added group, budget %.1f", workers, row.name, perGroup, row.budget)
			}
		}
	}
}

// TestAggSizeHintIsCapacityOnly runs grouped aggregations over both group
// inputs, a relation under a fused filter and a join chain's tuples, with
// the group-count cell unset, far below the group count, equal to it and
// far above it (past the input's rows), at W ∈ {1,2,4,7}. The count sizes
// the tables and nothing else, so every output must be bit-identical to
// the unset serial run's, and every run must store the groups it wrote.
func TestAggSizeHintIsCapacityOnly(t *testing.T) {
	d := newTestDB(t, 20000, 40, 4, 51)
	join := &Join{
		Left:     &Scan{Table: "items"},
		Right:    &Scan{Table: "dims"},
		LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: InnerJoin,
	}
	for _, tc := range []struct {
		name string
		in   Node
		by   []string
	}{
		{"relation", &Filter{Input: &Scan{Table: "items"}, Pred: expr.Cmp("qty", expr.Le, expr.Int(30))}, []string{"dim_id", "qty"}},
		{"relation_float", &Scan{Table: "items"}, []string{"price", "mode"}},
		{"chain", join, []string{"d_cat", "qty", "mode"}},
		{"chain_float", join, []string{"price", "d_rank"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			aggs := chainAggs("qty", "price")
			run := func(hint int64, workers int) *Relation {
				plan := &Agg{Input: tc.in, GroupBy: tc.by, Aggs: aggs, groups: new(atomic.Int64)}
				plan.groups.Store(hint)
				out := execWith(t, d.cat, plan, workers > 1, workers)
				if got := plan.groups.Load(); got != int64(out.NumRows()) {
					t.Fatalf("hint %d, workers=%d: stored %d groups, wrote %d", hint, workers, got, out.NumRows())
				}
				return out
			}
			want := run(0, 1)
			groups := int64(want.NumRows())
			if groups < 500 {
				t.Fatalf("test setup: %d groups", groups)
			}
			for _, hint := range []int64{0, groups / 50, groups, 100 * groups} {
				for _, w := range []int{1, 2, 4, 7} {
					requireIdentical(t, want, run(hint, w))
				}
			}
		})
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

package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/storage"
)

// materializeLevels returns plan with a Filter{TruePred} above every Join
// on a Join's probe side: each join then ends its own chain and
// materializes its output, as every join did before chains.
func materializeLevels(n Node) Node {
	j, ok := n.(*Join)
	if !ok {
		return n
	}
	cp := *j
	if l, ok := j.Left.(*Join); ok {
		cp.Left = &Filter{Input: materializeLevels(l), Pred: expr.TruePred{}}
	}
	return &cp
}

// chainAggs is every aggregate function over an int and a float column of
// a chain's output, an arithmetic argument and a CASE whose condition nests
// OR and NOT among them.
func chainAggs(intCol, floatCol string) []AggSpec {
	i, f := expr.Col(intCol), expr.Col(floatCol)
	cond := expr.Or(expr.Cmp(intCol, expr.Lt, expr.Int(10)), expr.Not(expr.Cmp(intCol, expr.Gt, expr.Int(40))))
	return []AggSpec{
		{Func: AggCount, Name: "cnt"},
		{Func: AggCountDistinct, Arg: f, Name: "dist_f"},
		{Func: AggCountDistinct, Arg: i, Name: "dist_i"},
		{Func: AggSum, Arg: f, Name: "sum_f"},
		{Func: AggAvg, Arg: f, Name: "avg_f"},
		{Func: AggMin, Arg: f, Name: "min_f"},
		{Func: AggMax, Arg: f, Name: "max_f"},
		{Func: AggMin, Arg: i, Name: "min_i"},
		{Func: AggMax, Arg: i, Name: "max_i"},
		{Func: AggSum, Arg: expr.Arith(f, expr.Mul, i), Name: "sum_fi"},
		{Func: AggSum, Arg: expr.Case(cond, expr.Arith(f, expr.Mul, i), f), Name: "sum_case"},
	}
}

// TestJoinChainMatchesMaterialized runs three-level chains mixing inner,
// left outer, semi and anti levels at several worker counts and requires
// results bit-identical to the same plans with every level materialized.
// One level keys on a left outer level's build column, so its unmatched
// (-1) tuples probe with key 0. A grouped Agg on top of each chain reads
// its tuples in place and must match the same Agg over the materialized
// chain output (a Filter{TruePred} between them): group keys of every kind
// (int, float, a string of another dictionary, a left outer build column
// with -1 rows), every aggregate, and floats whose groups start with NaN.
func TestJoinChainMatchesMaterialized(t *testing.T) {
	d := newTestDB(t, 20000, 40, 4, 47)
	dims := func(alias string, maxRank int64) Node {
		return &Filter{Input: &Scan{Table: "dims", Alias: alias}, Pred: expr.Cmp(alias+".d_rank", expr.Lt, expr.Int(maxRank))}
	}
	// The items rows with a NaN price wherever an id is below 300: nearly
	// every qty group's first row.
	nanItems := execWith(t, d.cat, &Scan{Table: "items"}, false, 0)
	ids, prices := nanItems.ColByName("id").Ints, nanItems.ColByName("price").Floats
	for r, id := range ids {
		if id < 300 {
			prices[r] = math.NaN()
		}
	}
	type grouping struct {
		by            []string
		intCol, float string
	}
	for _, tc := range []struct {
		name   string
		plan   *Join
		groups []grouping
	}{
		// left outer → semi on its build column d_rank (0 when unmatched,
		// and dims has d_id 0) → inner on a composite string/int key.
		{"left_semi_inner", &Join{
			Left: &Join{
				Left: &Join{
					Left:     &Scan{Table: "items"},
					Right:    &Filter{Input: &Scan{Table: "dims"}, Pred: expr.Cmp("d_rank", expr.Lt, expr.Int(50))},
					LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: LeftOuterJoin,
				},
				Right:    &Scan{Table: "dims", Alias: "s"},
				LeftKeys: []string{"d_rank"}, RightKeys: []string{"s.d_id"}, Type: SemiJoin,
			},
			Right: &Filter{
				Input: &Scan{Table: "items", Alias: "r", Project: []string{"id", "mode", "qty"}},
				Pred:  expr.Cmp("r.id", expr.Lt, expr.Int(500)),
			},
			LeftKeys: []string{"mode", "qty"}, RightKeys: []string{"r.mode", "r.qty"}, Type: InnerJoin,
		}, []grouping{
			{[]string{"d_cat", "mode", "d_rank"}, "qty", "price"},
			{[]string{"__matched", "r.id"}, "d_rank", "price"},
		}},
		// inner with a pushed-down semi-join filter → anti on a string key
		// → left outer keyed on the first level's build column, projected.
		{"inner_anti_left_projected", &Join{
			Left: &Join{
				Left: &Join{
					Left: &Filter{
						Input: &Scan{Table: "items"},
						Pred:  expr.Cmp("qty", expr.Le, expr.Int(30)),
					},
					Right:    dims("a", 70),
					LeftKeys: []string{"dim_id"}, RightKeys: []string{"a.d_id"}, Type: InnerJoin, PushSemiJoin: true,
				},
				Right:    dims("b", 5),
				LeftKeys: []string{"a.d_cat"}, RightKeys: []string{"b.d_cat"}, Type: AntiJoin,
			},
			Right:    dims("c", 20),
			LeftKeys: []string{"a.d_rank"}, RightKeys: []string{"c.d_id"}, Type: LeftOuterJoin,
			Project: []string{"price", "c.d_cat", "__matched", "id", "a.d_rank"},
		}, []grouping{
			{[]string{"c.d_cat", "a.d_rank", "__matched"}, "a.d_rank", "price"},
			{[]string{"price"}, "id", "price"},
		}},
		// anti → left outer → semi keyed on the left level's build column.
		{"anti_left_semi", &Join{
			Left: &Join{
				Left: &Join{
					Left:     &Scan{Table: "items"},
					Right:    dims("a", 10),
					LeftKeys: []string{"dim_id"}, RightKeys: []string{"a.d_id"}, Type: AntiJoin,
				},
				Right:    dims("b", 60),
				LeftKeys: []string{"qty"}, RightKeys: []string{"b.d_rank"}, Type: LeftOuterJoin,
			},
			Right:    dims("c", 90),
			LeftKeys: []string{"b.d_id"}, RightKeys: []string{"c.d_id"}, Type: SemiJoin,
		}, []grouping{
			{[]string{"b.d_cat", "b.d_rank"}, "qty", "price"},
			{[]string{"mode", "price"}, "dim_id", "price"},
		}},
		// left outer → inner over a probe relation with NaN prices.
		{"nan_left_inner", &Join{
			Left: &Join{
				Left:     &Materialized{Rel: nanItems},
				Right:    dims("a", 60),
				LeftKeys: []string{"dim_id"}, RightKeys: []string{"a.d_id"}, Type: LeftOuterJoin,
			},
			Right:    &Scan{Table: "dims", Alias: "b"},
			LeftKeys: []string{"a.d_rank"}, RightKeys: []string{"b.d_id"}, Type: InnerJoin,
		}, []grouping{
			{[]string{"qty"}, "qty", "price"},
			{[]string{"b.d_cat", "a.d_cat"}, "a.d_rank", "price"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := execWith(t, d.cat, materializeLevels(tc.plan), false, 0)
			if want.NumRows() == 0 {
				t.Fatal("test setup: the chain returns no rows")
			}
			for _, w := range []int{1, 2, 4, 7} {
				requireIdentical(t, want, execWith(t, d.cat, tc.plan, true, w))
			}
			for _, g := range tc.groups {
				aggs := chainAggs(g.intCol, g.float)
				want := execWith(t, d.cat, &Agg{Input: &Filter{Input: tc.plan, Pred: expr.TruePred{}}, GroupBy: g.by, Aggs: aggs}, false, 0)
				if want.NumRows() < 2 {
					t.Fatalf("test setup: group by %v gives %d groups", g.by, want.NumRows())
				}
				for _, w := range []int{1, 2, 4, 7} {
					requireIdentical(t, want, execWith(t, d.cat, &Agg{Input: tc.plan, GroupBy: g.by, Aggs: aggs}, true, w))
				}
			}
		})
	}
}

// TestAggOverChainCancel cancels a grouped aggregation over a join chain
// at every cancellation check it makes, serially and on four workers: each
// cancelled run returns the error, the only cache entry it may leave is
// one its probe scan completed before the cancellation, equal to a
// complete run's, and it leaves the plan's stored group count as it was.
func TestAggOverChainCancel(t *testing.T) {
	d := newTestDB(t, 20000, 40, 4, 49)
	plan := &Agg{
		Input: &Join{
			Left:     &Scan{Table: "items", Filter: expr.Cmp("qty", expr.Le, expr.Int(30))},
			Right:    &Scan{Table: "dims"},
			LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: InnerJoin,
		},
		GroupBy: []string{"d_cat", "mode"},
		Aggs:    chainAggs("qty", "price"),
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run := func(ctx context.Context) (*core.Cache, error) {
				cache := core.NewCache(core.DefaultConfig())
				ec := &ExecCtx{Catalog: d.cat, Cache: cache, Snapshot: d.cat.Snapshot(), Stats: &storage.ScanStats{}, Ctx: ctx, MaxWorkers: workers}
				_, err := plan.Execute(ec)
				return cache, err
			}
			probe := newCountdownCtx(1 << 30)
			cache, err := run(probe)
			if err != nil {
				t.Fatal(err)
			}
			// A count no run writes: a cancelled run's partial count is
			// at most the complete one.
			unwritten := plan.groupCount().Load() + 1
			complete := map[string]core.EntrySummary{}
			for _, e := range cache.Entries() {
				complete[e.Key] = e
			}
			if len(complete) == 0 {
				t.Fatal("test setup: a complete run inserts no entry")
			}
			checks := probe.calls.Load()
			empty := 0
			for n := int64(1); n <= checks; n++ {
				plan.groups.Store(unwritten)
				cache, err := run(newCountdownCtx(n))
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel at check %d of %d: err = %v", n, checks, err)
				}
				if got := plan.groups.Load(); got != unwritten {
					t.Fatalf("cancel at check %d: stored group count %d, want %d as before the run", n, got, unwritten)
				}
				entries := cache.Entries()
				if len(entries) == 0 {
					empty++
				}
				for _, e := range entries {
					c, ok := complete[e.Key]
					if !ok || c.EstRows != e.EstRows || c.Ranges != e.Ranges || c.MemBytes != e.MemBytes {
						t.Fatalf("cancel at check %d: entry %+v, a complete run's is %+v", n, e, c)
					}
				}
			}
			t.Logf("%d checks, %d cancelled runs left no entry", checks, empty)
			if empty == 0 {
				t.Fatalf("no cancellation of %d came before the probe scan inserted", checks)
			}
		})
	}
}

// TestJoinChainBytesPerProbeRow bounds what a join chain allocates per
// probe row: growing the probe relation from 20k to 80k rows may add, per
// added row, no more than the top join's projected columns and one int32
// row list per source. The probe relation is materialized up front, so
// scan scratch, which sync.Pool may drop, stays out of the count. A chain
// that materialized each level's output would add every column of every
// level.
func TestJoinChainBytesPerProbeRow(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const smallRows, largeRows = 20000, 80000
	bytes := func(rows int) (float64, *Join) {
		d := newTestDB(t, rows, 40, 4, 48)
		probe := execWith(t, d.cat, &Scan{Table: "items", Project: []string{"id", "dim_id", "qty", "price"}}, false, 0)
		plan := &Join{
			Left: &Join{
				Left:     &Materialized{Rel: probe},
				Right:    &Scan{Table: "dims"},
				LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: InnerJoin,
			},
			Right:    &Scan{Table: "dims", Alias: "r"},
			LeftKeys: []string{"qty"}, RightKeys: []string{"r.d_id"}, Type: InnerJoin,
			Project: []string{"id", "price"},
		}
		run := func() {
			ec := &ExecCtx{Catalog: d.cat, Snapshot: d.cat.Snapshot(), MaxWorkers: 4}
			if _, err := plan.Execute(ec); err != nil {
				t.Fatal(err)
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
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, plan
	}
	small, _ := bytes(smallRows)
	large, plan := bytes(largeRows)
	perRow := (large - small) / (largeRows - smallRows)
	// Each probe row matches at most one row per level, so per probe row:
	// 8 B per projected column and 4 B per source list (three sources).
	budget := float64(8*len(plan.Project) + 4*3)
	t.Logf("%.1f B allocated per added probe row, budget %.0f", perRow, budget)
	if perRow > budget {
		t.Fatalf("join chain allocates %.1f B per added probe row, budget %.0f", perRow, budget)
	}
}

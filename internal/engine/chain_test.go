package engine

import (
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/predcache/predcache/internal/expr"
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

// TestJoinChainMatchesMaterialized runs three-level chains mixing inner,
// left outer, semi and anti levels at several worker counts and requires
// results bit-identical to the same plans with every level materialized.
// One level keys on a left outer level's build column, so its unmatched
// (-1) tuples probe with key 0.
func TestJoinChainMatchesMaterialized(t *testing.T) {
	d := newTestDB(t, 20000, 40, 4, 47)
	dims := func(alias string, maxRank int64) Node {
		return &Filter{Input: &Scan{Table: "dims", Alias: alias}, Pred: expr.Cmp(alias+".d_rank", expr.Lt, expr.Int(maxRank))}
	}
	for _, tc := range []struct {
		name string
		plan *Join
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

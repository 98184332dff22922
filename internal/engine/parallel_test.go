package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/obs"
	"github.com/predcache/predcache/internal/storage"
)

// execWith runs a plan under the given parallelism settings.
func execWith(t testing.TB, cat *storage.Catalog, n Node, parallel bool, maxWorkers int) *Relation {
	t.Helper()
	ec := &ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}}
	if parallel {
		ec.MaxWorkers = maxWorkers
	} else {
		ec.Serial = true
	}
	rel, err := n.Execute(ec)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// requireIdentical asserts two relations are bit-identical: same schema,
// same row order, integer columns equal, float columns equal by exact bit
// pattern (not tolerance — the parallel operators promise determinism).
func requireIdentical(t testing.TB, serial, parallel *Relation) {
	t.Helper()
	if serial.NumRows() != parallel.NumRows() || serial.NumCols() != parallel.NumCols() {
		t.Fatalf("shape mismatch: serial %dx%d, parallel %dx%d",
			serial.NumRows(), serial.NumCols(), parallel.NumRows(), parallel.NumCols())
	}
	for ci := 0; ci < serial.NumCols(); ci++ {
		sc, pc := serial.Col(ci), parallel.Col(ci)
		if sc.Name != pc.Name || sc.Type != pc.Type {
			t.Fatalf("column %d: serial %s/%v, parallel %s/%v", ci, sc.Name, sc.Type, pc.Name, pc.Type)
		}
		for row := 0; row < serial.NumRows(); row++ {
			if sc.Type == storage.Float64 {
				if math.Float64bits(sc.Floats[row]) != math.Float64bits(pc.Floats[row]) {
					t.Fatalf("col %s row %d: serial %v (%x) parallel %v (%x)", sc.Name, row,
						sc.Floats[row], math.Float64bits(sc.Floats[row]),
						pc.Floats[row], math.Float64bits(pc.Floats[row]))
				}
				continue
			}
			if sc.Type == storage.String {
				if serial.StringValue(row, ci) != parallel.StringValue(row, ci) {
					t.Fatalf("col %s row %d: serial %q parallel %q", sc.Name, row,
						serial.StringValue(row, ci), parallel.StringValue(row, ci))
				}
				continue
			}
			if sc.Ints[row] != pc.Ints[row] {
				t.Fatalf("col %s row %d: serial %d parallel %d", sc.Name, row, sc.Ints[row], pc.Ints[row])
			}
		}
	}
}

// TestJoinFloatKeyBitExact is the regression test for the float join-key
// encoding: the old int64(f*1e6) encoding collided keys differing below
// 1e-6 and overflowed large magnitudes. Exact-bits encoding must match
// exactly the equal keys and nothing else.
func TestJoinFloatKeyBitExact(t *testing.T) {
	cat := storage.NewCatalog()
	lSchema := storage.Schema{{Name: "lk", Type: storage.Float64}, {Name: "lv", Type: storage.Int64}}
	rSchema := storage.Schema{{Name: "rk", Type: storage.Float64}, {Name: "rv", Type: storage.Int64}}
	lt, err := cat.CreateTable("l", lSchema, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cat.CreateTable("r", rSchema, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 1.0000001 vs 1.0000002 differ below the old 1e-6 scale; 1e15 and
	// 1e15+2 both overflow it; 0.3 vs 0.1+0.2 differ only in the last ulp.
	lKeys := []float64{1.0000001, 1.0000002, 1e15, 1e15 + 2, -7.25, 0.3}
	rKeys := []float64{1.0000002, 1e15, -7.25, math.Nextafter(0.3, 1)}
	lb := storage.NewBatch(lSchema)
	for i, k := range lKeys {
		lb.Cols[0].Floats = append(lb.Cols[0].Floats, k)
		lb.Cols[1].Ints = append(lb.Cols[1].Ints, int64(i))
	}
	lb.N = len(lKeys)
	if err := lt.Append(lb, cat.NextXID()); err != nil {
		t.Fatal(err)
	}
	rb := storage.NewBatch(rSchema)
	for i, k := range rKeys {
		rb.Cols[0].Floats = append(rb.Cols[0].Floats, k)
		rb.Cols[1].Ints = append(rb.Cols[1].Ints, int64(100+i))
	}
	rb.N = len(rKeys)
	if err := rt.Append(rb, cat.NextXID()); err != nil {
		t.Fatal(err)
	}

	join := &Join{
		Left: &Scan{Table: "l"}, Right: &Scan{Table: "r"},
		LeftKeys: []string{"lk"}, RightKeys: []string{"rk"}, Type: InnerJoin,
	}
	want := 0
	for _, lk := range lKeys {
		for _, rk := range rKeys {
			if lk == rk {
				want++
			}
		}
	}
	if want != 3 {
		t.Fatalf("test setup: want 3 exact matches, computed %d", want)
	}
	for _, par := range []bool{false, true} {
		rel := execWith(t, cat, join, par, 4)
		if rel.NumRows() != want {
			t.Fatalf("parallel=%v: %d matches, want %d (float keys collided or dropped)", par, rel.NumRows(), want)
		}
	}
}

// TestJoinParallelSerialIdentical checks every join type against the same
// plan executed serially: bit-identical output, including duplicate-match
// order and fused probe-side filters.
func TestJoinParallelSerialIdentical(t *testing.T) {
	d := newTestDB(t, 20000, 40, 4, 41)
	for _, tc := range []struct {
		name string
		plan Node
	}{
		{"inner_int_key", &Join{
			Left: &Scan{Table: "items"}, Right: &Scan{Table: "dims"},
			LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: InnerJoin,
		}},
		{"left_outer", &Join{
			Left: &Scan{Table: "items"}, Right: &Filter{
				Input: &Scan{Table: "dims"},
				Pred:  expr.Cmp("d_rank", expr.Lt, expr.Int(50)),
			},
			LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: LeftOuterJoin,
		}},
		{"semi", &Join{
			Left: &Scan{Table: "items"}, Right: &Scan{Table: "dims"},
			LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: SemiJoin,
		}},
		{"anti", &Join{
			Left: &Scan{Table: "items"}, Right: &Filter{
				Input: &Scan{Table: "dims"},
				Pred:  expr.Cmp("d_rank", expr.Ge, expr.Int(30)),
			},
			LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: AntiJoin,
		}},
		// Fused streaming filter on the probe side + composite string/int key
		// against a large build side (exercises the partitioned build).
		{"fused_filter_composite_key", &Join{
			Left: &Filter{
				Input: &Scan{Table: "items"},
				Pred: expr.And(
					expr.Cmp("qty", expr.Le, expr.Int(10)),
					expr.Cmp("price", expr.Ge, expr.Float(5)),
				),
			},
			Right:    &Scan{Table: "items", Alias: "r"},
			LeftKeys: []string{"mode", "qty"}, RightKeys: []string{"r.mode", "r.qty"}, Type: SemiJoin,
		}},
		// An OR filter fuses into the probe like any other, its marks
		// taken from the worker's own evaluation scratch.
		{"or_filter_fused", &Join{
			Left: &Filter{
				Input: &Scan{Table: "items"},
				Pred: expr.Or(
					expr.Cmp("qty", expr.Le, expr.Int(5)),
					expr.Cmp("qty", expr.Ge, expr.Int(45)),
				),
			},
			Right:    &Scan{Table: "dims"},
			LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: InnerJoin,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := execWith(t, d.cat, tc.plan, false, 0)
			for _, w := range []int{1, 2, 4, 7} {
				requireIdentical(t, serial, execWith(t, d.cat, tc.plan, true, w))
			}
		})
	}
}

// TestAggParallelSerialIdentical checks grouped and global aggregation
// against the serial plan: identical group order, identical float bits for
// every worker count (the partition/merge structure is deterministic).
func TestAggParallelSerialIdentical(t *testing.T) {
	d := newTestDB(t, 20000, 40, 4, 42)
	allAggs := []AggSpec{
		{Func: AggCount, Name: "cnt"},
		{Func: AggCountDistinct, Arg: expr.Col("qty"), Name: "dq"},
		{Func: AggCountDistinct, Arg: expr.Col("price"), Name: "dp"},
		{Func: AggSum, Arg: expr.Col("price"), Name: "total"},
		{Func: AggAvg, Arg: expr.Col("price"), Name: "avg_p"},
		{Func: AggMin, Arg: expr.Col("price"), Name: "min_p"},
		{Func: AggMax, Arg: expr.Col("price"), Name: "max_p"},
		{Func: AggMin, Arg: expr.Col("qty"), Name: "min_q"},
		{Func: AggMax, Arg: expr.Col("mode"), Name: "max_m"},
	}
	for _, tc := range []struct {
		name string
		plan Node
	}{
		{"global", &Agg{Input: &Scan{Table: "items"}, Aggs: allAggs}},
		{"group_int", &Agg{Input: &Scan{Table: "items"}, GroupBy: []string{"dim_id"}, Aggs: allAggs}},
		{"group_string", &Agg{Input: &Scan{Table: "items"}, GroupBy: []string{"mode"}, Aggs: allAggs}},
		{"group_multi_key", &Agg{Input: &Scan{Table: "items"}, GroupBy: []string{"mode", "qty"}, Aggs: allAggs}},
		{"fused_filter", &Agg{
			Input: &Filter{
				Input: &Scan{Table: "items"},
				Pred:  expr.Cmp("qty", expr.Ge, expr.Int(25)),
			},
			GroupBy: []string{"mode"}, Aggs: allAggs,
		}},
		{"global_fused_filter", &Agg{
			Input: &Filter{
				Input: &Scan{Table: "items"},
				Pred:  expr.Cmp("price", expr.Lt, expr.Float(50)),
			},
			Aggs: allAggs,
		}},
		{"or_filter_not_fused", &Agg{
			Input: &Filter{
				Input: &Scan{Table: "items"},
				Pred: expr.Or(
					expr.Cmp("qty", expr.Le, expr.Int(5)),
					expr.Cmp("qty", expr.Ge, expr.Int(45)),
				),
			},
			GroupBy: []string{"mode"}, Aggs: allAggs,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := execWith(t, d.cat, tc.plan, false, 0)
			for _, w := range []int{1, 2, 4, 7} {
				requireIdentical(t, serial, execWith(t, d.cat, tc.plan, true, w))
			}
		})
	}
}

// TestJoinAboveAggPipeline runs a full filter→join→agg pipeline both ways.
func TestJoinAboveAggPipeline(t *testing.T) {
	d := newTestDB(t, 20000, 40, 4, 43)
	plan := &Agg{
		Input: &Filter{
			Input: &Join{
				Left: &Filter{
					Input: &Scan{Table: "items"},
					Pred:  expr.Cmp("qty", expr.Ge, expr.Int(10)),
				},
				Right:    &Scan{Table: "dims"},
				LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: InnerJoin,
			},
			Pred: expr.Cmp("d_rank", expr.Lt, expr.Int(80)),
		},
		GroupBy: []string{"d_cat"},
		Aggs: []AggSpec{
			{Func: AggCount, Name: "cnt"},
			{Func: AggSum, Arg: expr.Col("price"), Name: "total"},
		},
	}
	serial := execWith(t, d.cat, plan, false, 0)
	for _, w := range []int{2, 4} {
		requireIdentical(t, serial, execWith(t, d.cat, plan, true, w))
	}
}

// TestParallelCancellation verifies morsel claims observe a cancelled
// context: join and agg stop with the context error.
func TestParallelCancellation(t *testing.T) {
	d := newTestDB(t, 20000, 40, 4, 44)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, plan := range []Node{
		&Join{Left: &Scan{Table: "items"}, Right: &Scan{Table: "dims"},
			LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: InnerJoin},
		&Agg{Input: &Scan{Table: "items"}, GroupBy: []string{"mode"},
			Aggs: []AggSpec{{Func: AggCount, Name: "c"}}},
	} {
		ec := &ExecCtx{Catalog: d.cat, Snapshot: d.cat.Snapshot(), Stats: &storage.ScanStats{},
			MaxWorkers: 4, Ctx: ctx}
		if _, err := plan.Execute(ec); err == nil {
			t.Fatalf("%T: cancelled execution returned no error", plan)
		}
	}
}

// TestWarmParallelPipelineAllocs guards the allocation count of the warm
// morsel-parallel probe/agg path: a filter→join→agg pipeline at 2 workers
// costs per-operator allocations (output columns, partial states, group
// tables, goroutines) and a few per morsel (probe output buffers), none per
// row. Every operator runs as many workers at 20k rows as at 80k (each has
// at least two morsels of input or at most one at both sizes), so
// quadrupling the rows may add a few allocations per added morsel and
// nothing per row: a per-row or per-duplicate allocation on the probe or
// accumulate inner loops adds thousands. The slack per morsel covers the
// race detector, whose sync.Pool drops scratches at random.
func TestWarmParallelPipelineAllocs(t *testing.T) {
	const smallRows, largeRows, perMorsel = 20000, 80000, 8
	allocs := func(rows int) float64 {
		d := newTestDB(t, rows, 40, 4, 46)
		plan := &Agg{
			Input: &Join{
				Left: &Filter{
					Input: &Scan{Table: "items"},
					Pred:  expr.Cmp("qty", expr.Ge, expr.Int(25)),
				},
				Right:    &Scan{Table: "dims"},
				LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: InnerJoin,
			},
			GroupBy: []string{"d_cat"},
			Aggs:    []AggSpec{{Func: AggCount, Name: "c"}, {Func: AggSum, Arg: expr.Col("price"), Name: "s"}},
		}
		run := func() {
			ec := &ExecCtx{Catalog: d.cat, Snapshot: d.cat.Snapshot(), Stats: &storage.ScanStats{},
				MaxWorkers: 2}
			if _, err := plan.Execute(ec); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			run() // warm the scratch pools
		}
		return testing.AllocsPerRun(20, run)
	}
	small, large := allocs(smallRows), allocs(largeRows)
	t.Logf("warm parallel pipeline: %.1f allocs at %d rows, %.1f at %d", small, smallRows, large, largeRows)
	if budget := float64(perMorsel * numMorsels(largeRows-smallRows)); large-small > budget {
		t.Fatalf("warm parallel pipeline grows by %.1f allocs from %d to %d rows, budget %.0f",
			large-small, smallRows, largeRows, budget)
	}
}

// TestParallelStatsAccounting checks the morsel/worker counters flow into
// ScanStats: every operator's worker time, scans included, and morsels from
// the operators that have them (a scan's unit of work is the slice).
func TestParallelStatsAccounting(t *testing.T) {
	d := newTestDB(t, 20000, 40, 4, 45)
	scan := &Scan{Table: "items", Filter: expr.Cmp("qty", expr.Ge, expr.Int(25))}
	for _, tc := range []struct {
		name    string
		plan    Node
		morsels bool
	}{
		{"scan", scan, false},
		{"scan_agg", &Agg{Input: scan, GroupBy: []string{"mode"},
			Aggs: []AggSpec{{Func: AggSum, Arg: expr.Col("price"), Name: "s"}}}, true},
	} {
		stats := &storage.ScanStats{}
		ec := &ExecCtx{Catalog: d.cat, Snapshot: d.cat.Snapshot(), Stats: stats, MaxWorkers: 4}
		if _, err := tc.plan.Execute(ec); err != nil {
			t.Fatal(err)
		}
		if got := stats.Morsels.Load() > 0; got != tc.morsels {
			t.Fatalf("%s: %d morsels recorded", tc.name, stats.Morsels.Load())
		}
		if stats.WorkerNanos.Load() == 0 {
			t.Fatalf("%s: no worker time recorded", tc.name)
		}
	}
}

// cacheContents maps every entry's key to the candidates it serves.
func cacheContents(c *core.Cache) map[string]core.Candidates {
	out := map[string]core.Candidates{}
	for _, e := range c.Entries() {
		out[e.Key], _ = c.Best([]string{e.Key})
	}
	return out
}

// TestScanWorkerCountIndependent: each slice gathers into its own region of
// the exact-size output, in slice order, so a scan's output and the cache
// entries it leaves do not depend on how many workers claimed its slices —
// cold (miss, insert) and warm (hit), on the dense path, with a residual
// filter (its columns projected or not), with rowids, and under a join that
// pushes a semi-join filter into it.
func TestScanWorkerCountIndependent(t *testing.T) {
	plans := []struct {
		name string
		plan Node
	}{
		{"scan", &Scan{Table: "items", Filter: expr.Cmp("qty", expr.Le, expr.Int(10)),
			Project: []string{"id", "price", "mode"}}},
		{"scan_residual", &Scan{Table: "items", Filter: expr.CmpCols("qty", expr.Lt, "dim_id"),
			Project: []string{"id", "price"}}},
		{"scan_rowids", &Scan{Table: "items", Filter: expr.Cmp("qty", expr.Ge, expr.Int(40)),
			Project: []string{"id"}, RowIDs: true}},
		{"scan_residual_projected", &Scan{Table: "items",
			Filter:  expr.And(expr.Cmp("qty", expr.Ge, expr.Int(5)), expr.CmpCols("qty", expr.Lt, "dim_id")),
			Project: []string{"dim_id", "qty", "mode", "price"}}},
		{"scan_join_agg", &Agg{
			Input: &Join{
				Left:     &Scan{Table: "items", Filter: expr.Cmp("qty", expr.Ge, expr.Int(25))},
				Right:    &Scan{Table: "dims", Filter: expr.Cmp("d_rank", expr.Lt, expr.Int(50))},
				LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: InnerJoin, PushSemiJoin: true,
			},
			GroupBy: []string{"d_cat"},
			Aggs:    []AggSpec{{Func: AggCount, Name: "c"}, {Func: AggSum, Arg: expr.Col("price"), Name: "s"}},
		}},
	}
	for _, slices := range []int{1, 4, 7} {
		d := newTestDB(t, 30000, 40, slices, 47) // 8 morsels: room for 7 workers
		for _, tc := range plans {
			// run executes the plan cold then warm against a fresh cache.
			run := func(ec ExecCtx) (cold, warm *Relation, entries map[string]core.Candidates) {
				t.Helper()
				ec.Catalog, ec.Snapshot, ec.Cache = d.cat, d.cat.Snapshot(), core.NewCache(core.DefaultConfig())
				for _, out := range []**Relation{&cold, &warm} {
					ec.Stats = &storage.ScanStats{}
					rel, err := tc.plan.Execute(&ec)
					if err != nil {
						t.Fatal(err)
					}
					*out = rel
				}
				if ec.Stats.CacheHits.Load() == 0 {
					t.Fatal("warm run did not hit")
				}
				return cold, warm, cacheContents(ec.Cache)
			}
			refCold, refWarm, refEntries := run(ExecCtx{Serial: true})
			if len(refEntries) == 0 {
				t.Fatal("serial run cached nothing")
			}
			for _, w := range []int{1, 2, 4, 7} {
				t.Run(fmt.Sprintf("%s/slices=%d/workers=%d", tc.name, slices, w), func(t *testing.T) {
					cold, warm, entries := run(ExecCtx{MaxWorkers: w})
					requireIdentical(t, refCold, cold)
					requireIdentical(t, refWarm, warm)
					if !reflect.DeepEqual(refEntries, entries) {
						t.Fatalf("cache entries differ from the serial run's:\nserial %+v\ngot    %+v", refEntries, entries)
					}
				})
			}
		}
	}
}

// TestScanBoundedByMaxWorkers: the one worker count bounds scans too. On
// seven slices, MaxWorkers 2 runs two workers with never more than two slice
// spans open at once; MaxWorkers 1 and Serial run inline.
func TestScanBoundedByMaxWorkers(t *testing.T) {
	d := newTestDB(t, 60000, 40, 7, 48)
	scan := &Scan{Table: "items", Filter: expr.Cmp("qty", expr.Le, expr.Int(25))}
	for _, tc := range []struct {
		name string
		ec   ExecCtx
		want int64
	}{
		{"MaxWorkers=2", ExecCtx{MaxWorkers: 2}, 2},
		{"MaxWorkers=1", ExecCtx{MaxWorkers: 1}, 1},
		{"Serial", ExecCtx{Serial: true, MaxWorkers: 4}, 1},
	} {
		ec, tr := tc.ec, obs.NewTrace()
		ec.Catalog, ec.Snapshot, ec.Trace = d.cat, d.cat.Snapshot(), tr
		if _, err := scan.Execute(&ec); err != nil {
			t.Fatal(err)
		}
		if got := spanInt(t, tr, obs.KindNode, "parallel.workers"); got != tc.want {
			t.Fatalf("%s: parallel.workers = %d, want %d", tc.name, got, tc.want)
		}
		// Sweep the slice spans' begin (+1) and end (-1) events in time order;
		// a worker ends one span before it begins the next, so ends sort first.
		type event struct {
			at    time.Duration
			delta int
		}
		var events []event
		for _, sp := range tr.Spans() {
			if sp.Kind == obs.KindSlice {
				events = append(events, event{sp.Start, 1}, event{sp.Start + sp.Dur, -1})
			}
		}
		if len(events) != 2*7 {
			t.Fatalf("%s: %d slice span events, want 14", tc.name, len(events))
		}
		sort.Slice(events, func(i, j int) bool {
			if events[i].at != events[j].at {
				return events[i].at < events[j].at
			}
			return events[i].delta < events[j].delta
		})
		open, maxOpen := 0, 0
		for _, e := range events {
			open += e.delta
			maxOpen = max(maxOpen, open)
		}
		if int64(maxOpen) > tc.want {
			t.Fatalf("%s: %d slice spans open at once, want at most %d", tc.name, maxOpen, tc.want)
		}
	}
}

// TestRunWorkersRecoversPanic: a panic in one worker comes back as an error
// carrying the value and the stack, the other workers finish, and no
// goroutine is left behind — inline and spawned alike.
func TestRunWorkersRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		var calls, finished atomic.Int64
		_, _, err := runWorkers(workers, func() error {
			if calls.Add(1) == 1 {
				panic("boom")
			}
			finished.Add(1)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "parallel_test.go") {
			t.Fatalf("workers=%d: err = %v, want the panic value and its stack", workers, err)
		}
		if got := finished.Load(); got != int64(workers-1) {
			t.Fatalf("workers=%d: %d other workers finished, want %d", workers, got, workers-1)
		}
		// wg.Wait returns as the workers pass Done, a moment before they exit.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines, %d before the call", workers, runtime.NumGoroutine(), base)
			}
		}
	}
}

// faultCtx panics at its n-th Done call: a fault inside whichever scan
// worker makes that cancellation check, under the table's scan lock.
type faultCtx struct {
	context.Context
	left atomic.Int64
}

func (c *faultCtx) Done() <-chan struct{} {
	if c.left.Add(-1) == 0 {
		panic("injected scan fault")
	}
	return nil
}

// TestScanWorkerPanicFailsQueryOnly: a panic inside a scan worker is the
// query's error; the scan lock is released, the scratches go back to the
// pool, and the cache is neither inserted into nor extended.
func TestScanWorkerPanicFailsQueryOnly(t *testing.T) {
	d := newTestDB(t, 20000, 40, 4, 49)
	scan := &Scan{Table: "items", Filter: expr.Cmp("qty", expr.Le, expr.Int(25)), Project: []string{"id"}}
	cache := core.NewCache(core.DefaultConfig())
	run := func(workers int, ctx context.Context) error {
		ec := &ExecCtx{Catalog: d.cat, Cache: cache, Snapshot: d.cat.Snapshot(), Stats: &storage.ScanStats{},
			MaxWorkers: workers, Ctx: ctx}
		_, err := scan.Execute(ec)
		return err
	}
	faulted := func(workers int) {
		t.Helper()
		ctx := &faultCtx{Context: context.Background()}
		ctx.left.Store(2) // every slice checks at its first block: the second one faults
		if err := run(workers, ctx); err == nil || !strings.Contains(err.Error(), "injected scan fault") {
			t.Fatalf("workers=%d: err = %v, want the injected fault", workers, err)
		}
	}

	const rounds = 20
	gets0, news0 := ScratchPoolStats()
	for i := 0; i < rounds; i++ {
		faulted(1)
		faulted(4)
	}
	// A leaked scratch is never drawn again, so leaking scans allocate one per
	// acquisition; released ones are reused (the race detector makes
	// sync.Pool drop a quarter of them, hence the slack).
	gets, news := ScratchPoolStats()
	if gets, news = gets-gets0, news-news0; gets < rounds || news > gets/2 {
		t.Fatalf("%d scratch acquisitions allocated %d scratches: faulted scans leak them", gets, news)
	}
	if st := cache.Stats(); st.Inserts != 0 || st.Extends != 0 {
		t.Fatalf("faulted scans fed the cache: %+v", st)
	}

	// Delete and vacuum take the layout lock exclusively: they return only if
	// every faulted scan released its read lock.
	d.items.DeleteRows(0, []int{0}, d.cat.NextXID())
	d.items.Vacuum(d.cat.Snapshot())

	// With an entry in place and rows past its watermark, a faulted hit does
	// not extend it.
	if err := run(4, context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.items.Append(itemsBatch(8000, 50, 40), d.cat.NextXID()); err != nil {
		t.Fatal(err)
	}
	faulted(4)
	if st := cache.Stats(); st.Inserts != 1 || st.Extends != 0 {
		t.Fatalf("faulted hit touched the entry: %+v", st)
	}
}

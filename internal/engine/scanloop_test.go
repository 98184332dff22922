package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/obs"
	"github.com/predcache/predcache/internal/storage"
)

// loopTable builds a table of rows rows, dealt block by block over slices
// slices, whose zone maps cannot single out a block for "a = x and b = y":
// every block holds every value of a, and b walks a 1,000-value window that
// starts 1,001 further on in each block, so half the blocks' bounds contain
// any given b — yet each (a, b) pair occurs in exactly one of the first 2,000
// blocks.
func loopTable(t testing.TB, rows, slices int) (*storage.Catalog, *storage.Table) {
	t.Helper()
	schema := storage.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "a", Type: storage.Int64},
		{Name: "b", Type: storage.Int64},
	}
	cat := storage.NewCatalog()
	tbl, err := cat.CreateTable("loop", schema, slices)
	if err != nil {
		t.Fatal(err)
	}
	batch := storage.NewBatch(schema)
	for r := 0; r < rows; r++ {
		k, j := r/storage.BlockSize, r%storage.BlockSize
		batch.Cols[0].Ints = append(batch.Cols[0].Ints, int64(r))
		batch.Cols[1].Ints = append(batch.Cols[1].Ints, int64(j))
		batch.Cols[2].Ints = append(batch.Cols[2].Ints, int64((1001*k+j)%2000))
	}
	batch.N = rows
	if err := cat.Commit(func(xid uint64) error { return tbl.Append(batch, xid) }); err != nil {
		t.Fatal(err)
	}
	return cat, tbl
}

// sliceSpansInt sums attribute key over the trace's slice spans.
func sliceSpansInt(tr *obs.Trace, key string) int64 {
	var sum int64
	for _, sp := range tr.Spans() {
		if sp.Kind == obs.KindSlice {
			v, _ := sp.IntAttr(key)
			sum += v
		}
	}
	return sum
}

// spanInt returns attribute key of the trace's only span of the given kind.
func spanInt(t testing.TB, tr *obs.Trace, kind, key string) int64 {
	t.Helper()
	var found *obs.Span
	spans := tr.Spans()
	for i := range spans {
		if spans[i].Kind == kind {
			if found != nil {
				t.Fatalf("more than one %s span", kind)
			}
			found = &spans[i]
		}
	}
	if found == nil {
		t.Fatalf("no %s span", kind)
	}
	v, ok := found.IntAttr(key)
	if !ok {
		t.Fatalf("%s span has no %s", kind, key)
	}
	return v
}

// A hit whose entry leaves one candidate block in a 2,000-block slice runs
// the block loop once, and still accounts for every block it never looked at.
func TestScanHitVisitsOnlyCandidateBlocks(t *testing.T) {
	const rows = 2000*storage.BlockSize + 500 // 2,000 sealed blocks and an open tail
	cat, _ := loopTable(t, rows, 1)
	scan := &Scan{
		Table:   "loop",
		Filter:  expr.And(expr.Cmp("a", expr.Eq, expr.Int(5)), expr.Cmp("b", expr.Eq, expr.Int(77))),
		Project: []string{"id"},
	}
	cache := core.NewCache(core.DefaultConfig())
	run := func() (*Relation, *storage.ScanStats, *obs.Trace) {
		stats, tr := &storage.ScanStats{}, obs.NewTrace()
		ec := &ExecCtx{Catalog: cat, Cache: cache, Snapshot: cat.Snapshot(), Stats: stats, Trace: tr}
		rel, err := scan.Execute(ec)
		if err != nil {
			t.Fatal(err)
		}
		return rel, stats, tr
	}

	// 1001k+5 ≡ 77 (mod 2000) has one solution below 2,000: k = 72.
	const wantID = 72*storage.BlockSize + 5
	miss, missStats, missTrace := run()
	if miss.NumRows() != 1 || miss.ColByName("id").Ints[0] != wantID {
		t.Fatalf("miss returned %v", miss.ColByName("id").Ints)
	}
	if v := spanInt(t, missTrace, obs.KindNode, "blocks.visited"); v != 2001 {
		t.Fatalf("miss visited %d blocks, want all 2001", v)
	}
	if missStats.BlocksPrunedCache.Load() != 0 {
		t.Fatalf("miss pruned %d blocks by cache", missStats.BlocksPrunedCache.Load())
	}

	hit, st, tr := run()
	if st.CacheHits.Load() != 1 {
		t.Fatal("second run did not hit")
	}
	if hit.NumRows() != 1 || hit.ColByName("id").Ints[0] != wantID {
		t.Fatalf("hit returned %v", hit.ColByName("id").Ints)
	}
	if v := spanInt(t, tr, obs.KindNode, "blocks.visited"); v != 1 {
		t.Fatalf("hit ran the block loop %d times, want 1", v)
	}
	// The figures the per-block loop reported for this scan: 2,000 of 2,001
	// blocks excluded by the entry, one block of candidates, three
	// (column, block) pairs touched — two kernels and the projected id.
	for name, got := range map[string]int64{
		"blocks.pruned.cache":   st.BlocksPrunedCache.Load(),
		"blocks.pruned.zonemap": st.BlocksSkipped.Load(),
		"rows.scanned":          st.RowsScanned.Load(),
		"blocks.accessed":       st.BlocksAccessed.Load(),
		"blocks.kernel_encoded": st.BlocksKernel.Load(),
		"rows.decoded":          st.RowsDecoded.Load(),
	} {
		want := map[string]int64{
			"blocks.pruned.cache": 2000, "blocks.pruned.zonemap": 0, "rows.scanned": storage.BlockSize,
			"blocks.accessed": 3, "blocks.kernel_encoded": 2, "rows.decoded": 1,
		}[name]
		if got != want {
			t.Errorf("hit %s = %d, want %d", name, got, want)
		}
	}
}

// countdownCtx is a context that cancels itself on its n-th Done call: the
// engine polls Done at every cancellation check, so n picks the check that
// observes the cancellation, deterministically.
type countdownCtx struct {
	context.Context
	left  atomic.Int64
	calls atomic.Int64
	once  sync.Once
	done  chan struct{}
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} {
	c.calls.Add(1)
	if c.left.Add(-1) <= 0 {
		c.once.Do(func() { close(c.done) })
	}
	return c.done
}

func (c *countdownCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// Both phases of a scan check for cancellation once per cancelCheckRows
// rows — candidate rows in the block loop, then output rows in the gather —
// not once per block; a scan cancelled at its n-th check has scanned at most
// (n-1)*cancelCheckRows rows, and neither inserts nor extends an entry — on
// one slice inline, and on four slices claimed by four workers. "a < 10"
// keeps 1% of the rows, so its checks fall in the block loop; "a >= 10"
// keeps 99%, so some fall in the gather, after every row was scanned.
func TestScanCancelAmortisedAndCacheSafe(t *testing.T) {
	for _, tc := range []struct {
		name   string
		filter expr.Pred
	}{
		{"a<10", expr.Cmp("a", expr.Lt, expr.Int(10))},
		{"a>=10", expr.Cmp("a", expr.Ge, expr.Int(10))},
	} {
		t.Run(tc.name+"/slices=1", func(t *testing.T) { testScanCancel(t, tc.filter, 1) })
		t.Run(tc.name+"/slices=4,workers=4", func(t *testing.T) { testScanCancel(t, tc.filter, 4) })
	}
}

func testScanCancel(t *testing.T, filter expr.Pred, slices int) {
	const rows = 100 * storage.BlockSize
	cat, tbl := loopTable(t, rows, slices)
	scan := &Scan{Table: "loop", Filter: filter, Project: []string{"id"}}
	cache := core.NewCache(core.DefaultConfig())
	run := func(ctx context.Context, c *core.Cache) (*obs.Trace, error) {
		tr := obs.NewTrace()
		ec := &ExecCtx{Catalog: cat, Cache: c, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}, Trace: tr, Ctx: ctx, MaxWorkers: slices}
		_, err := scan.Execute(ec)
		return tr, err
	}

	// How often does an uncancelled scan check?
	probe := newCountdownCtx(1 << 30)
	tr, err := run(probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	checks, output := probe.calls.Load(), sliceSpansInt(tr, "rows.qualified")
	if checks*cancelCheckRows < rows+output {
		t.Fatalf("%d checks over %d rows and %d output rows: more than %d rows between checks", checks, rows, output, cancelCheckRows)
	}
	// Every slice's first block checks, whatever came before it; a block
	// holds at most one block of output rows.
	if max := (rows+output)/(cancelCheckRows-storage.BlockSize) + int64(slices); checks > max {
		t.Fatalf("%d checks over %d rows and %d output rows, want at most %d: the check is not amortised", checks, rows, output, max)
	}

	// cancelledAt reports whether the scan cancelled at its n-th check had
	// scanned every row: the check fell in the gather.
	cancelledAt := func(n int64) (gathering bool) {
		t.Helper()
		tr, err := run(newCountdownCtx(n), cache)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at check %d: err = %v", n, err)
		}
		scanned := sliceSpansInt(tr, "rows.scanned")
		if max := (n - 1) * cancelCheckRows; scanned > max {
			t.Fatalf("cancel at check %d: scanned %d rows, want at most %d", n, scanned, max)
		}
		return scanned == int64(tbl.NumRows())
	}
	inGather := 0
	for n := int64(1); n <= checks; n++ {
		if cancelledAt(n) {
			inGather++
		}
	}
	if output > rows/2 && inGather == 0 {
		t.Fatalf("none of %d cancellations fell in the gather of %d output rows", checks, output)
	}
	if st := cache.Stats(); st.Inserts != 0 || len(cache.Entries()) != 0 {
		t.Fatalf("cancelled scans inserted: %+v", st)
	}

	// With an entry in place and rows appended past its watermark, a
	// cancelled hit must not extend it; the next complete scan does.
	if _, err := run(context.Background(), cache); err != nil {
		t.Fatal(err)
	}
	more := storage.NewBatch(tbl.Schema())
	for r := 0; r < 20*storage.BlockSize; r++ {
		more.Cols[0].Ints = append(more.Cols[0].Ints, int64(rows+r))
		more.Cols[1].Ints = append(more.Cols[1].Ints, int64(r%storage.BlockSize))
		more.Cols[2].Ints = append(more.Cols[2].Ints, 0)
	}
	more.N = 20 * storage.BlockSize
	if err := cat.Commit(func(xid uint64) error { return tbl.Append(more, xid) }); err != nil {
		t.Fatal(err)
	}
	for n := int64(1); n <= 3; n++ {
		cancelledAt(n)
	}
	if st := cache.Stats(); st.Extends != 0 || st.Inserts != 1 {
		t.Fatalf("cancelled hits touched the entry: %+v", st)
	}
	if _, err := run(context.Background(), cache); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Extends != int64(slices) { // one Extend per slice
		t.Fatalf("complete scan after the cancelled ones: %+v", st)
	}
}

// TestAggOverScanCancel: an aggregate directly over a scan reads the scan's
// output runs while the scan is open, and the scan feeds the cache only
// when it closes after the aggregate. Cancelled at any one of its checks —
// in the scan's phase 1 or in the aggregate's phases — a run errors and
// leaves no entry; a complete run leaves one. Grouped and global, inline
// and on four workers over four slices.
func TestAggOverScanCancel(t *testing.T) {
	const rows = 40 * storage.BlockSize
	scan := &Scan{Table: "loop", Filter: expr.Cmp("a", expr.Ge, expr.Int(10)), Project: []string{"a", "b"}}
	aggs := []AggSpec{{Func: AggCount, Name: "c"}, {Func: AggSum, Arg: expr.Col("b"), Name: "s"}}
	for _, tc := range []struct {
		name string
		agg  *Agg
	}{
		{"grouped", &Agg{Input: scan, GroupBy: []string{"a"}, Aggs: aggs}},
		{"global", &Agg{Input: scan, Aggs: aggs}},
	} {
		for _, w := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, w), func(t *testing.T) {
				cat, _ := loopTable(t, rows, w)
				run := func(ctx context.Context, cache *core.Cache) (*obs.Trace, error) {
					tr := obs.NewTrace()
					ec := &ExecCtx{Catalog: cat, Cache: cache, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{},
						Trace: tr, Ctx: ctx, MaxWorkers: w}
					_, err := tc.agg.Execute(ec)
					return tr, err
				}
				probe := newCountdownCtx(1 << 30)
				if _, err := run(probe, core.NewCache(core.DefaultConfig())); err != nil {
					t.Fatal(err)
				}
				checks := probe.calls.Load()
				cache := core.NewCache(core.DefaultConfig())
				inAgg := 0
				for n := int64(1); n <= checks; n++ {
					tr, err := run(newCountdownCtx(n), cache)
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("cancel at check %d of %d: err = %v", n, checks, err)
					}
					if entries := cache.Entries(); len(entries) != 0 {
						t.Fatalf("cancel at check %d of %d left entries %+v", n, checks, entries)
					}
					if sliceSpansInt(tr, "rows.scanned") == rows {
						inAgg++
					}
				}
				if inAgg == 0 {
					t.Fatalf("none of %d cancellations fell after the scan's phase 1", checks)
				}
				if _, err := run(context.Background(), cache); err != nil {
					t.Fatal(err)
				}
				if st := cache.Stats(); st.Inserts != 1 || st.Entries != 1 {
					t.Fatalf("complete run after the cancelled ones: %+v", st)
				}
			})
		}
	}
}

// BenchmarkScanHitOneBlock is the candidate-driven loop's case: a hit that
// leaves one candidate block of 2,000.
func BenchmarkScanHitOneBlock(b *testing.B) {
	cat, _ := loopTable(b, 2000*storage.BlockSize, 1)
	scan := &Scan{
		Table:   "loop",
		Filter:  expr.And(expr.Cmp("a", expr.Eq, expr.Int(5)), expr.Cmp("b", expr.Eq, expr.Int(77))),
		Project: []string{"id"},
	}
	cache := core.NewCache(core.DefaultConfig())
	// A cancellable context, as every server session's statement has.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ec := &ExecCtx{Catalog: cat, Cache: cache, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}, Ctx: ctx}
	if _, err := scan.Execute(ec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := scan.Execute(ec)
		if err != nil || rel.NumRows() != 1 {
			b.Fatalf("rows %d err %v", rel.NumRows(), err)
		}
	}
}

// BenchmarkAggOverScanHit is a warm bitmap-entry hit under count(*) and
// sum(id) on a four-slice table of 400 blocks, about half of which the
// entry keeps: the hit expands the entry straight into the scan's pooled
// candidate lists, and the aggregate reads the scan's output runs in place,
// so no scan output column is allocated. It reports B/op and allocs/op.
func BenchmarkAggOverScanHit(b *testing.B) {
	cat, _ := loopTable(b, 400*storage.BlockSize, 4)
	agg := &Agg{
		Input: &Scan{Table: "loop", Filter: expr.Cmp("b", expr.Lt, expr.Int(100)), Project: []string{"id"}},
		Aggs:  []AggSpec{{Func: AggCount, Name: "c"}, {Func: AggSum, Arg: expr.Col("id"), Name: "s"}},
	}
	// A cancellable context, as every server session's statement has.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ec := &ExecCtx{Catalog: cat, Cache: core.NewCache(core.DefaultConfig()), Snapshot: cat.Snapshot(),
		Stats: &storage.ScanStats{}, Ctx: ctx}
	cold, err := agg.Execute(ec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := agg.Execute(ec)
		if err != nil || rel.Col(0).Ints[0] != cold.Col(0).Ints[0] {
			b.Fatalf("count %d, cold %d, err %v", rel.Col(0).Ints[0], cold.Col(0).Ints[0], err)
		}
	}
	b.StopTimer()
	if hits := ec.Stats.CacheHits.Load(); hits != int64(b.N) {
		b.Fatalf("%d hits in %d warm runs", hits, b.N)
	}
}

// TestScanBytesPerOutputRow: a scan allocates its output once, at its exact
// size, and writes each output value once, so every added output row costs
// the 8 bytes per projected column of the output and next to nothing else —
// on the dense path (a kernel-only filter) and on the vectorized one (a
// residual comparing two columns that are also projected), inline and on
// four workers. The scratch pool is emptied before each measured scan, as a
// collection does, so output arrays a scratch kept from an earlier scan
// cannot hide a per-row copy.
func TestScanBytesPerOutputRow(t *testing.T) {
	const smallRows, largeRows, projected = 20000, 80000, 2
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	schema := storage.Schema{{Name: "a", Type: storage.Int64}, {Name: "b", Type: storage.Int64}, {Name: "c", Type: storage.Float64}}
	table := func(rows int) *storage.Catalog {
		cat := storage.NewCatalog()
		tbl, err := cat.CreateTable("t", schema, 4)
		if err != nil {
			t.Fatal(err)
		}
		batch := storage.NewBatch(schema)
		for r := 0; r < rows; r++ {
			a := int64(r % 1000)
			batch.Cols[0].Ints = append(batch.Cols[0].Ints, a)
			batch.Cols[1].Ints = append(batch.Cols[1].Ints, a+int64(r%7))
			batch.Cols[2].Floats = append(batch.Cols[2].Floats, float64(r)/8)
		}
		batch.N = rows
		if err := cat.Commit(func(xid uint64) error { return tbl.Append(batch, xid) }); err != nil {
			t.Fatal(err)
		}
		return cat
	}
	small, large := table(smallRows), table(largeRows)
	for _, tc := range []struct {
		name string
		scan *Scan
	}{
		// Every row passes both filters.
		{"dense", &Scan{Table: "t", Filter: expr.Cmp("a", expr.Ge, expr.Int(0)), Project: []string{"a", "c"}}},
		{"vectorized", &Scan{Table: "t", Filter: expr.CmpCols("a", expr.Le, "b"), Project: []string{"a", "b"}}},
	} {
		for _, w := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, w), func(t *testing.T) {
				bytes := func(cat *storage.Catalog, rows int) uint64 {
					ec := &ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), MaxWorkers: w}
					if _, err := tc.scan.Execute(ec); err != nil {
						t.Fatal(err)
					}
					runtime.GC() // twice: the pool keeps a victim generation
					runtime.GC()
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					rel, err := tc.scan.Execute(ec)
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatal(err)
					}
					if rel.NumRows() != rows {
						t.Fatalf("%d output rows, want %d", rel.NumRows(), rows)
					}
					return after.TotalAlloc - before.TotalAlloc
				}
				perRow := float64(bytes(large, largeRows)-bytes(small, smallRows)) / (largeRows - smallRows)
				t.Logf("%.2f bytes per added output row", perRow)
				if budget := 8.0*projected + 2; perRow > budget {
					t.Fatalf("%.2f bytes per added output row, budget %.0f", perRow, budget)
				}
			})
		}
	}
}

// groupsAgg is a grouped aggregate over a whole-table scan of a loopTable
// with about 2,000 groups, whose rows every hash partition holds some of in
// every morsel.
func groupsAgg() *Agg {
	return &Agg{
		Input:   &Scan{Table: "loop"},
		GroupBy: []string{"b"},
		Aggs:    []AggSpec{{Func: AggCount, Name: "c"}, {Func: AggSum, Arg: expr.Col("id"), Name: "s"}, {Func: AggSum, Arg: expr.Col("a"), Name: "t"}},
	}
}

// BenchmarkAggOverScanGroups runs groupsAgg over 400 blocks: at W > 1,
// phase 2 reads each partition's rows of every morsel, so its cost should
// not grow with the worker count.
func BenchmarkAggOverScanGroups(b *testing.B) {
	cat, _ := loopTable(b, 400*storage.BlockSize, 4)
	agg := groupsAgg()
	ec := &ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}}
	if _, err := agg.Execute(ec); err != nil { // sizes the tables from here on
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.Execute(ec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendUnderAggOverScan times one-row appends, 0-4 ms apart, to a
// table that another goroutine aggregates over in a loop, on two workers. An
// aggregate directly over a scan holds the table's scan lock until it is
// done, and an append waits for that lock. It reports the appends' p50 and
// p99 latency and the aggregates run per second; ns/op includes the pauses.
func BenchmarkAppendUnderAggOverScan(b *testing.B) {
	for _, grouped := range []bool{false, true} {
		b.Run(fmt.Sprintf("grouped=%v", grouped), func(b *testing.B) {
			cat, tbl := loopTable(b, 400*storage.BlockSize, 4)
			agg := groupsAgg()
			if !grouped {
				agg.GroupBy = nil
			}
			var stop atomic.Bool
			var runs atomic.Int64
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if _, err := agg.Execute(&ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), MaxWorkers: 2}); err != nil {
						b.Error(err)
						return
					}
					runs.Add(1)
				}
			}()
			r := rand.New(rand.NewSource(1))
			lat := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range lat {
				batch := storage.NewBatch(tbl.Schema())
				for c := range batch.Cols {
					batch.Cols[c].Ints = []int64{int64(i)}
				}
				batch.N = 1
				t0 := time.Now()
				if err := cat.Commit(func(xid uint64) error { return tbl.Append(batch, xid) }); err != nil {
					b.Fatal(err)
				}
				lat[i] = time.Since(t0)
				time.Sleep(time.Duration(r.Intn(4000)) * time.Microsecond)
			}
			el := b.Elapsed()
			stop.Store(true)
			wg.Wait()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2].Microseconds()), "p50-µs")
			b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99-µs")
			b.ReportMetric(float64(runs.Load())/el.Seconds(), "aggs/s")
		})
	}
}

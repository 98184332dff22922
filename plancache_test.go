package predcache_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	predcache "github.com/predcache/predcache"
)

func TestPlanCacheHitOnRepeat(t *testing.T) {
	db := openWithData(t, 3000)
	q := "select count(*) as n from t where id < 500"
	for i := 0; i < 3; i++ {
		res := one(t, db, q)
		if got := intCell(t, res, 0, "n"); got != 500 {
			t.Fatalf("run %d: count = %d", i, got)
		}
	}
	st := db.PlanCacheStats()
	if st.Hits < 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss", st)
	}
	entries := one(t, db, "select query_template, hits from pc.plan_cache")
	if entries.NumRows() != 1 || intCell(t, entries, 0, "hits") < 2 {
		t.Fatalf("entries:\n%s", entries.Format(5))
	}
	if key := strCell(t, entries, 0, "query_template"); !strings.Contains(key, "?") {
		t.Fatalf("template not normalized: %q", key)
	}
}

// The defining property of normalized caching: a repeat with different
// literals reuses the template AND computes the right answer for the new
// literals.
func TestPlanCacheNormalizedHitCorrectResults(t *testing.T) {
	db := openWithData(t, 3000)
	for _, want := range []int64{500, 100, 2999, 1} {
		q := fmt.Sprintf("select count(*) as n from t where id < %d", want)
		res := one(t, db, q)
		if got := intCell(t, res, 0, "n"); got != want {
			t.Fatalf("id < %d: count = %d", want, got)
		}
	}
	st := db.PlanCacheStats()
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 3 hits / 1 miss", st)
	}

	// String and IN-list literals rebind too.
	a := intCell(t, one(t, db, "select count(*) as n from t where grp = 'a'"), 0, "n")
	b := intCell(t, one(t, db, "select count(*) as n from t where grp = 'b'"), 0, "n")
	if a != 1000 || b != 1000 {
		t.Fatalf("grp counts: a=%d b=%d", a, b)
	}
	ab := intCell(t, one(t, db, "select count(*) as n from t where grp in ('a', 'b')"), 0, "n")
	bc := intCell(t, one(t, db, "select count(*) as n from t where grp in ('b', 'c')"), 0, "n")
	if ab != 2000 || bc != 2000 {
		t.Fatalf("in-list counts: ab=%d bc=%d", ab, bc)
	}
}

func TestPlanCacheInvalidation(t *testing.T) {
	db := openWithData(t, 3000)
	q := "select count(*) as n from t where id < 500"
	one(t, db, q)
	one(t, db, q)
	base := db.PlanCacheStats()
	if base.Hits != 1 {
		t.Fatalf("warmup stats = %+v", base)
	}

	// DML on the referenced table drops the entry (table statistics feed the
	// planner, and the cached plan must never serve stale row counts).
	schema := predcache.Schema{
		{Name: "id", Type: predcache.Int64},
		{Name: "grp", Type: predcache.String},
		{Name: "val", Type: predcache.Float64},
		{Name: "day", Type: predcache.Date},
	}
	batch := predcache.NewBatch(schema)
	batch.Cols[0].Ints = []int64{100000}
	batch.Cols[1].Strings = []string{"a"}
	batch.Cols[2].Floats = []float64{1}
	batch.Cols[3].Ints = []int64{20000}
	batch.N = 1
	if err := db.Insert("t", batch); err != nil {
		t.Fatal(err)
	}
	one(t, db, q)
	st := db.PlanCacheStats()
	if st.Invalidations != base.Invalidations+1 {
		t.Fatalf("after insert: %+v", st)
	}

	// DDL anywhere drops entries wholesale (ddl generation).
	if err := db.CreateTable("u", predcache.Schema{{Name: "x", Type: predcache.Int64}}); err != nil {
		t.Fatal(err)
	}
	one(t, db, q)
	st = db.PlanCacheStats()
	if st.Invalidations != base.Invalidations+2 {
		t.Fatalf("after create table: %+v", st)
	}

	// Vacuum changes the physical layout (row renumbering).
	if _, err := db.DeleteWhere("t", mustPred(t, "id < 10")); err != nil {
		t.Fatal(err)
	}
	one(t, db, q) // re-plans after the delete...
	if err := db.Vacuum("t"); err != nil {
		t.Fatal(err)
	}
	before := db.PlanCacheStats().Invalidations
	one(t, db, q)
	if got := db.PlanCacheStats().Invalidations; got != before+1 {
		t.Fatalf("after vacuum: invalidations %d, want %d", got, before+1)
	}

	// The re-planned entry serves hits again, with correct post-DML results.
	res := one(t, db, q)
	if got := intCell(t, res, 0, "n"); got != 490 {
		t.Fatalf("post-vacuum count = %d, want 490", got)
	}
}

// A plan-cache hit skips parsing and planning entirely: pc.query_log shows
// plan_us = 0 for the hit (the plan phase never runs).
func TestPlanCacheHitSkipsPlanningInQueryLog(t *testing.T) {
	db := openWithData(t, 3000)
	q := "select count(*) as n from t where id < 500"
	one(t, db, q)
	one(t, db, q)
	recs := one(t, db, "select seq, query_text, error, plan_us from pc.query_log order by seq")
	if recs.NumRows() != 2 {
		t.Fatalf("%d records", recs.NumRows())
	}
	if strCell(t, recs, 1, "query_text") != q || strCell(t, recs, 1, "error") != "" {
		t.Fatalf("unexpected records\n%s", recs.Format(5))
	}
	if us := intCell(t, recs, 1, "plan_us"); us != 0 {
		t.Fatalf("cache hit ran the planner: plan_us = %d", us)
	}
	if db.PlanCacheStats().Hits != 1 {
		t.Fatalf("stats = %+v", db.PlanCacheStats())
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	db := predcache.Open(predcache.WithoutPlanCache())
	if err := db.CreateTable("t", predcache.Schema{{Name: "x", Type: predcache.Int64}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("select count(*) as n from t where x = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("select count(*) as n from t where x = 1"); err != nil {
		t.Fatal(err)
	}
	if st := db.PlanCacheStats(); st != (predcache.PlanCacheStats{}) {
		t.Fatalf("disabled cache has stats %+v", st)
	}
	// pc.plan_cache stays queryable, just empty.
	res := one(t, db, "select count(*) as n from pc.plan_cache")
	if got := intCell(t, res, 0, "n"); got != 0 {
		t.Fatalf("pc.plan_cache rows = %d", got)
	}
}

func TestPlanCacheSystemTable(t *testing.T) {
	db := openWithData(t, 1000)
	q := "select count(*) as n from t where id < 100"
	one(t, db, q)
	one(t, db, q)
	res := one(t, db, "select query_template, slots, tables, hits from pc.plan_cache")
	if res.NumRows() != 1 {
		t.Fatalf("pc.plan_cache rows = %d", res.NumRows())
	}
	if got := res.StringValue(0, 0); !strings.Contains(got, "?") {
		t.Fatalf("template = %q", got)
	}
	if got := intCell(t, res, 0, "slots"); got != 1 {
		t.Fatalf("slots = %d", got)
	}
	if got := res.StringValue(0, 2); got != "t" {
		t.Fatalf("tables = %q", got)
	}
}

// Concurrent sessions hammering the same template with different literals
// must neither race (the template is cloned per execution) nor cross results.
func TestPlanCacheConcurrent(t *testing.T) {
	db := openWithData(t, 3000)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				want := int64(1 + (g*25+i)%2999)
				q := fmt.Sprintf("select count(*) as n from t where id < %d", want)
				res, err := db.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if got := intCell(t, res, 0, "n"); got != want {
					errs <- fmt.Errorf("id < %d: got %d", want, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := db.PlanCacheStats()
	if st.Hits == 0 {
		t.Fatalf("no hits under concurrency: %+v", st)
	}
}

// Sessions running grouped statements of one template at once share the
// template's group-count cell through every clone the plan cache hands
// out: each run sizes its tables from whichever run stored last, and two
// literals with different group counts keep moving it. Results must equal
// the serial runs', and the cell must be race-free.
func TestPlanCacheGroupCountSharedAcrossClones(t *testing.T) {
	db := openWithData(t, 20000)
	queries := []string{
		"select id, grp, count(*) as n, sum(val) as s, avg(val) as a from t where id < 15000 group by id, grp",
		"select id, grp, count(*) as n, sum(val) as s, avg(val) as a from t where id < 3000 group by id, grp",
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = one(t, db, q).Format(0)
	}
	before := db.PlanCacheStats()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				qi := (g + i) % len(queries)
				res, err := db.Query(queries[qi])
				if err != nil {
					errs <- err
					return
				}
				if got := res.Format(0); got != want[qi] {
					errs <- fmt.Errorf("session %d run %d of %q: result differs from the serial run", g, i, queries[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := db.PlanCacheStats()
	if st.Hits-before.Hits != 24 || st.Entries != 1 {
		t.Fatalf("stats = %+v after %+v, want 24 more hits on one template", st, before)
	}
}

func TestQueryCtxPreCancelled(t *testing.T) {
	db := openWithData(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryCtx(ctx, "select count(*) from t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res := one(t, db, "select count(*) as n from pc.query_log"); intCell(t, res, 0, "n") != 0 {
		t.Fatalf("pre-cancelled query was recorded (%d records)", intCell(t, res, 0, "n"))
	}
}

func TestQueryCtxCancelMidQuery(t *testing.T) {
	db := openWithData(t, 200000)
	// A self-join big enough that execution takes tens of milliseconds;
	// cancel almost immediately and require a prompt abort. Retried a few
	// times so a scheduler hiccup finishing the query early cannot flake the
	// test.
	q := "select count(*) as n from t a, t b where a.id = b.id"
	for attempt := 0; attempt < 5; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := db.QueryCtx(ctx, q)
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			continue // finished before the cancel landed; try again
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("cancelled query ran %v", elapsed)
		}
		// The cancelled run must be recorded as a failure.
		if text, msg := lastLogged(t, db); text != q || !strings.Contains(msg, "cancel") {
			t.Fatalf("cancelled query record = %q, error %q", text, msg)
		}
		return
	}
	t.Skip("query always completed before cancellation; machine too fast for this workload")
}

// countdownCtx cancels itself on its n-th Done call. The engine polls Done at
// every cancellation check (once per cancelCheckRows rows in the scan loop,
// once per morsel above it), so n picks the check that sees the cancellation
// without any timing.
type countdownCtx struct {
	context.Context
	left atomic.Int64
	once sync.Once
	done chan struct{}
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} {
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

// Cancelling at any of the engine's amortised checks — the first few and then
// ever later ones, until the query outruns the countdown — aborts with the
// context's error and is recorded as a failure.
func TestQueryCtxCancelAtEveryCheck(t *testing.T) {
	db := openWithData(t, 200000)
	q := "select count(*) as n from t a, t b where a.id = b.id"
	cancelled := 0
	for n, next := int64(1), int64(2); ; n, next = next, n+next {
		res, err := db.QueryCtx(newCountdownCtx(n), q)
		if err == nil {
			if got := intCell(t, res, 0, "n"); got != 200000 {
				t.Fatalf("completed run counted %d", got)
			}
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at check %d: err = %v", n, err)
		}
		if text, msg := lastLogged(t, db); text != q || !strings.Contains(msg, "cancel") {
			t.Fatalf("cancel at check %d: record = %q, error %q", n, text, msg)
		}
		cancelled++
	}
	// 400,000 scanned rows alone are ~100 checks: Fibonacci steps reach
	// that after ten cancelled runs.
	if cancelled < 8 {
		t.Fatalf("only %d runs were cancelled: the engine polls the context too rarely", cancelled)
	}
}

// A cancelled scan must not leave a partial entry in the predicate cache:
// the next uncancelled run would serve wrong results from it.
func TestCancelDoesNotPoisonPredicateCache(t *testing.T) {
	db := openWithData(t, 200000)
	q := "select count(*) as n from t where val < 50"
	for attempt := 0; attempt < 20; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		_, _ = db.QueryCtx(ctx, q)
		cancel()
	}
	res := one(t, db, q)
	if got := intCell(t, res, 0, "n"); got != 100000 {
		t.Fatalf("count after cancelled runs = %d, want 100000", got)
	}

	// The same without timing: cancel a fresh database's query at each of its
	// checks in turn. While the cancellation lands inside the scan, the run
	// must fail and leave the cache as it was — no entry inserted, and, once
	// one exists and rows have been added past its watermark, none extended.
	// The sweep ends when the scan gets through (the cache changes, whether
	// or not a later operator still sees the cancellation); the entry it
	// left must then answer correctly.
	db = openWithData(t, 200000)
	sweep := func(want int64, unchanged func(predcache.CacheStats) bool) {
		t.Helper()
		for n := int64(1); ; n++ {
			_, err := db.QueryCtx(newCountdownCtx(n), q)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("cancel at check %d: err = %v", n, err)
			}
			if unchanged(db.CacheStats()) {
				if err == nil {
					t.Fatalf("run %d completed without touching the cache", n)
				}
				continue
			}
			if n < 3 {
				t.Fatalf("scan completed under a context cancelled at check %d", n)
			}
			break
		}
		if got := intCell(t, one(t, db, q), 0, "n"); got != want {
			t.Fatalf("count = %d, want %d", got, want)
		}
	}
	sweep(100000, func(st predcache.CacheStats) bool { return st.Inserts == 0 })
	if st := db.CacheStats(); st.Inserts != 1 {
		t.Fatalf("completed scan: %+v", st)
	}
	more := predcache.NewBatch(predcache.Schema{
		{Name: "id", Type: predcache.Int64},
		{Name: "grp", Type: predcache.String},
		{Name: "val", Type: predcache.Float64},
		{Name: "day", Type: predcache.Date},
	})
	for i := 0; i < 50000; i++ {
		more.Cols[0].Ints = append(more.Cols[0].Ints, int64(200000+i))
		more.Cols[1].Strings = append(more.Cols[1].Strings, "a")
		more.Cols[2].Floats = append(more.Cols[2].Floats, float64(i%100))
		more.Cols[3].Ints = append(more.Cols[3].Ints, 20000)
	}
	more.N = 50000
	if err := db.Insert("t", more); err != nil {
		t.Fatal(err)
	}
	sweep(125000, func(st predcache.CacheStats) bool { return st.Inserts == 1 && st.Extends == 0 })
	if st := db.CacheStats(); st.Extends == 0 {
		t.Fatalf("completed scan did not extend: %+v", st)
	}
}

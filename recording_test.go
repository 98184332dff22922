package predcache_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	predcache "github.com/predcache/predcache"
)

// Failed EXPLAIN and EXPLAIN ANALYZE statements must land in pc.query_log
// with their error and the full statement text, like any other failure.
func TestFailedExplainRecorded(t *testing.T) {
	db := openWithData(t, 100)
	for _, q := range []string{
		"explain select nope from t",
		"explain analyze select nope from t",
		"explain select * from",
	} {
		if _, err := db.Query(q); err == nil {
			t.Fatalf("%s: no error", q)
		}
		text, msg := lastLogged(t, db)
		if text != q {
			t.Fatalf("recorded sql %q, want %q", text, q)
		}
		if msg == "" {
			t.Fatalf("%s: recorded without error", q)
		}
	}
	// Successful EXPLAIN stays unrecorded (it executes nothing): the newest
	// row is still the read before it. Successful EXPLAIN ANALYZE is
	// recorded because it runs the statement.
	const count = "select count(*) as n from pc.query_log"
	n := intCell(t, one(t, db, count), 0, "n")
	if _, err := db.Query("explain select count(*) from t"); err != nil {
		t.Fatal(err)
	}
	if got := intCell(t, one(t, db, count), 0, "n"); got != n+1 {
		t.Fatalf("successful EXPLAIN was recorded (%d -> %d records, one of them the first count)", n, got)
	}
	if _, err := db.Query("explain analyze select count(*) from t"); err != nil {
		t.Fatal(err)
	}
	if text, _ := lastLogged(t, db); text != "explain analyze select count(*) from t" {
		t.Fatalf("EXPLAIN ANALYZE record missing or wrong: %q", text)
	}
}

// dmlCount reads the dml SLO class's sample count (the read itself is a
// SELECT, in another class).
func dmlCount(t *testing.T, db *predcache.DB) int64 {
	t.Helper()
	return intCell(t, one(t, db, "select sum(sample_count) as n from pc.slo where query_class = 'dml'"), 0, "n")
}

// Error-path DML (unknown table, bad predicate) must not feed the dml SLO
// histograms: those sub-microsecond no-ops would drag the percentiles to
// zero. Only successful mutations observe.
func TestDMLErrorPathsNotObserved(t *testing.T) {
	db := openWithData(t, 100)
	if n := dmlCount(t, db); n != 0 {
		t.Fatalf("fresh db has %d dml samples", n)
	}
	if _, err := db.DeleteWhere("missing", mustPred(t, "id < 5")); err == nil {
		t.Fatal("delete from missing table succeeded")
	}
	if _, err := db.UpdateWhere("missing", mustPred(t, "id < 5"), func(b *predcache.Batch) {}); err == nil {
		t.Fatal("update of missing table succeeded")
	}
	if err := db.Vacuum("missing"); err == nil {
		t.Fatal("vacuum of missing table succeeded")
	}
	// A predicate over a nonexistent column fails at bind time, after the
	// table lookup — still an error path, still unobserved.
	if _, err := db.DeleteWhere("t", mustPred(t, "nope < 5")); err == nil {
		t.Fatal("delete with bad predicate succeeded")
	}
	if n := dmlCount(t, db); n != 0 {
		t.Fatalf("error-path DML observed %d samples into the dml SLO class", n)
	}

	if _, err := db.DeleteWhere("t", mustPred(t, "id < 5")); err != nil {
		t.Fatal(err)
	}
	if err := db.Vacuum("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.UpdateWhere("t", mustPred(t, "id = 50"), func(b *predcache.Batch) {
		for i := range b.Cols[2].Floats {
			b.Cols[2].Floats[i] = 1
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n := dmlCount(t, db); n != 3 {
		t.Fatalf("successful DML observed %d samples, want 3", n)
	}
}

// The sampler lifecycle must be idempotent and leak-free: double start,
// double stop, stop without start, and concurrent start/stop (run under
// -race) — and the retained samples stay queryable after the sampler halts.
func TestRuntimeSamplerLifecycle(t *testing.T) {
	db := openWithData(t, 100)
	db.StopRuntimeSampler() // stop without start: no panic

	before := runtime.NumGoroutine()
	db.StartRuntimeSampler(time.Hour) // samples once immediately
	db.StartRuntimeSampler(time.Hour) // double start replaces (and stops) the first
	db.StopRuntimeSampler()
	db.StopRuntimeSampler() // double stop

	// The halted sampler's ring must remain queryable (the documented
	// contract of StopRuntimeSampler). pc.runtime falls back to one live
	// sample when the ring is empty, so the ring is checked directly too.
	if len(predcache.SinksOf(db).Runtime.Samples()) == 0 {
		t.Fatal("samples gone after StopRuntimeSampler")
	}
	res := one(t, db, "select count(*) as n from pc.runtime")
	if n := intCell(t, res, 0, "n"); n == 0 {
		t.Fatal("pc.runtime empty after StopRuntimeSampler")
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				db.StartRuntimeSampler(time.Hour)
				db.StopRuntimeSampler()
			}
		}()
	}
	wg.Wait()
	db.StopRuntimeSampler()

	// Collector goroutines must all have exited (allow scheduler slack).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines %d -> %d: sampler leak", before, runtime.NumGoroutine())
}

// EXPLAIN output still renders through Query (regression guard for the
// explain-path restructure).
func TestExplainThroughQueryStillRenders(t *testing.T) {
	db := openWithData(t, 100)
	res := one(t, db, "explain select count(*) from t where id < 10")
	if res.NumRows() == 0 || !strings.Contains(res.Format(50), "Scan") {
		t.Fatalf("explain output:\n%s", res.Format(50))
	}
}

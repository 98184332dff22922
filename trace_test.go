package predcache_test

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"

	predcache "github.com/predcache/predcache"
	"github.com/predcache/predcache/internal/obs"
)

// strCell reads a string cell by column name.
func strCell(t *testing.T, res *predcache.Result, row int, col string) string {
	t.Helper()
	c := res.ColByName(col)
	if c == nil {
		t.Fatalf("no column %q in %v", col, res.ColumnNames())
	}
	return c.Dict.Value(c.Ints[row])
}

// TestErrorTraceRetained is the error-path acceptance check: a query that
// fails during execution must land in BOTH pc.query_log and pc.traces, with
// its partial spans finalized and the error recorded.
func TestErrorTraceRetained(t *testing.T) {
	db := openWithData(t, 1000)
	one(t, db, "select count(*) from t where id < 10")

	// Plan-time failure: unknown table.
	if _, err := db.Query("select * from nosuch"); err == nil {
		t.Fatal("expected an error")
	}
	// Execution would never start for the above; also provoke a parse error.
	if _, err := db.Query("select from from from"); err == nil {
		t.Fatal("expected a parse error")
	}

	// Both failures are in the query log...
	res := one(t, db, "select count(*) as n from pc.query_log where error <> ''")
	if n := intCell(t, res, 0, "n"); n != 2 {
		t.Fatalf("failed queries in pc.query_log = %d, want 2", n)
	}
	// ...and both partial traces were retained with reason 'error'.
	res = one(t, db, "select count(*) as n from pc.traces where reason = 'error'")
	if n := intCell(t, res, 0, "n"); n != 2 {
		t.Fatalf("error traces in pc.traces = %d, want 2", n)
	}
	// The retained error trace joins pc.query_log by ID and its spans are
	// all finalized (no zero durations).
	res = one(t, db, `select s.trace_id, s.name, s.dur_us from pc.trace_spans s, pc.query_log q
		where s.trace_id = q.seq and q.error <> ''`)
	if res.NumRows() == 0 {
		t.Fatal("no spans for failed queries via pc.trace_spans JOIN pc.query_log")
	}
	for i := 0; i < res.NumRows(); i++ {
		if d := intCell(t, res, i, "s.dur_us"); d < 0 {
			t.Fatalf("span %d has negative duration", i)
		}
	}
	// The plan failure's trace carries the error, and one of its spans the
	// error attribute.
	res = one(t, db, "select trace_id, error, spans from pc.traces where reason = 'error' and query_text like '%nosuch%'")
	if res.NumRows() != 1 {
		t.Fatalf("plan-failure traces = %d, want 1", res.NumRows())
	}
	if strCell(t, res, 0, "error") == "" || intCell(t, res, 0, "spans") == 0 {
		t.Fatalf("error trace incomplete:\n%s", res.Format(5))
	}
	id := intCell(t, res, 0, "trace_id")
	res = one(t, db, fmt.Sprintf("select count(*) as n from pc.trace_spans where trace_id = %d and attrs like '%%error=%%'", id))
	if n := intCell(t, res, 0, "n"); n == 0 {
		t.Fatalf("trace %d has no span with an error attr", id)
	}
}

// TestSlowTraceRetained drives a query over a tiny slow threshold and
// retrieves its span tree through the SQL surface.
func TestSlowTraceRetained(t *testing.T) {
	// Everything is "slow" at 1ns, so every trace is retained as slow.
	db2 := predcache.Open(predcache.WithSlowQueryThreshold(time.Nanosecond))
	schema := predcache.Schema{
		{Name: "id", Type: predcache.Int64},
		{Name: "val", Type: predcache.Int64},
	}
	if err := db2.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	b := predcache.NewBatch(schema)
	for i := 0; i < 1000; i++ {
		b.Cols[0].Ints = append(b.Cols[0].Ints, int64(i))
		b.Cols[1].Ints = append(b.Cols[1].Ints, int64(i%7))
	}
	b.N = 1000
	if err := db2.Insert("t", b); err != nil {
		t.Fatal(err)
	}
	one(t, db2, "select count(*) from t where id < 500")

	res := one(t, db2, `select s.name, s.dur_us, q.wall_us from pc.trace_spans s, pc.query_log q
		where s.trace_id = q.seq and q.slow = 1`)
	if res.NumRows() == 0 {
		t.Fatal("slow query's spans not retrievable via pc.trace_spans JOIN pc.query_log")
	}
	names := map[string]bool{}
	for i := 0; i < res.NumRows(); i++ {
		names[strCell(t, res, i, "s.name")] = true
	}
	for _, phase := range []string{"parse", "plan", "execute"} {
		if !names[phase] {
			t.Errorf("slow trace missing %q phase span (got %v)", phase, names)
		}
	}
	res = one(t, db2, "select trace_id, reason from pc.traces order by trace_id limit 1")
	if got := strCell(t, res, 0, "reason"); got != "slow" {
		t.Fatalf("retention reason = %q, want slow", got)
	}
}

// TestTraceRetentionBounded is the 100k-query stress acceptance check:
// retained spans never exceed the configured budget.
func TestTraceRetentionBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-query stress")
	}
	const budget = 64
	m := predcache.NewMetrics()
	db := predcache.Open(
		predcache.WithSlices(1),
		predcache.WithMaxWorkers(1),
		predcache.WithSlowQueryThreshold(50*time.Millisecond),
		predcache.WithTraceRetention(predcache.TraceRetentionConfig{
			SpanBudget: budget,
			ShapeQuota: 2,
		}),
	)
	db.EnableMetrics(m)
	schema := predcache.Schema{{Name: "id", Type: predcache.Int64}}
	if err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	b := predcache.NewBatch(schema)
	for i := 0; i < 64; i++ {
		b.Cols[0].Ints = append(b.Cols[0].Ints, int64(i))
	}
	b.N = 64
	if err := db.Insert("t", b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100_000; i++ {
		q := fmt.Sprintf("select count(*) from t where id = %d", i%64)
		if i%1000 == 999 {
			// Sprinkle failures so the always-admit path churns too.
			_, _ = db.Query("select count(*) from t where bogus = 1")
			continue
		}
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
		if i%10_000 == 0 {
			res := one(t, db, "select sum(spans) as s from pc.traces")
			if got := intCell(t, res, 0, "s"); got > budget {
				t.Fatalf("iteration %d: pc.traces reports %d spans, budget %d", i, got, budget)
			}
		}
	}
	counter := func(name string) float64 {
		res := one(t, db, "select value from pc.metrics where name = '"+name+"'")
		return res.Col(0).Floats[0]
	}
	if got := counter("predcache_trace_spans_retained"); got > budget {
		t.Fatalf("final span count %v exceeds budget %d", got, budget)
	}
	offered, kept, evicted := counter("predcache_traces_offered_total"), counter("predcache_traces_kept_total"), counter("predcache_traces_evicted_total")
	if offered < 99_000 || kept == 0 || evicted == 0 {
		t.Fatalf("stress stats implausible: offered %v kept %v evicted %v", offered, kept, evicted)
	}
}

// TestSLOTableAndCheck exercises pc.slo end to end, including the exemplar
// join back to pc.traces.
func TestSLOTableAndCheck(t *testing.T) {
	db := openWithData(t, 4000)
	one(t, db, "select count(*) from t where id = 17") // agg (count)
	one(t, db, "select id from t where id = 17")       // point
	one(t, db, "select id from t where id < 25")       // range
	if _, err := db.UpdateWhere("t", mustPred(t, "id = 3"), func(b *predcache.Batch) {}); err != nil {
		t.Fatal(err)
	}

	res := one(t, db, "select query_class, cache_outcome, sample_count from pc.slo where sample_count > 0")
	classes := map[string]bool{}
	for i := 0; i < res.NumRows(); i++ {
		classes[strCell(t, res, i, "query_class")] = true
	}
	for _, want := range []string{"point", "range", "agg", "dml"} {
		if !classes[want] {
			t.Errorf("pc.slo missing populated class %q (got %v)", want, classes)
		}
	}

	// Every populated non-DML class carries an exemplar that joins a
	// retained trace.
	res = one(t, db, `select s.query_class, tr.query_text from pc.slo s, pc.traces tr
		where s.exemplar_trace_id = tr.trace_id and s.sample_count > 0`)
	if res.NumRows() == 0 {
		t.Fatal("no pc.slo exemplar joins a retained trace")
	}

	// Every class has a row per cache outcome, populated or not.
	res = one(t, db, "select count(*) as n from pc.slo")
	if n := intCell(t, res, 0, "n"); n != 8 {
		t.Fatalf("pc.slo rows = %d, want 8", n)
	}
}

// TestRuntimeTable exercises the sampler lifecycle and pc.runtime.
func TestRuntimeTable(t *testing.T) {
	db := openWithData(t, 100)
	// Touch the scratch pool so the sample's pool counters are non-zero.
	one(t, db, "select count(*) from t where id < 50")
	// Without a sampler the table answers with a single live sample.
	res := one(t, db, "select count(*) as n from pc.runtime")
	if n := intCell(t, res, 0, "n"); n != 1 {
		t.Fatalf("pc.runtime without a sampler = %d rows, want 1 live sample", n)
	}
	db.StartRuntimeSampler(time.Hour) // samples once immediately
	defer db.StopRuntimeSampler()
	// The table's live fallback would also yield one row, so the sampler's
	// ring is checked directly and the row must be the ring's sample.
	ring := ringSample(t, db)
	res = one(t, db, "select ts_micros, goroutines, heap_alloc_bytes, pool_gets from pc.runtime")
	if res.NumRows() != 1 {
		t.Fatalf("pc.runtime rows = %d, want 1", res.NumRows())
	}
	if ts := intCell(t, res, 0, "ts_micros"); ts != ring.TSMicros {
		t.Fatalf("pc.runtime ts_micros = %d, want the ring sample's %d", ts, ring.TSMicros)
	}
	if g := intCell(t, res, 0, "goroutines"); g <= 0 {
		t.Fatalf("goroutines = %d", g)
	}
	if pg := intCell(t, res, 0, "pool_gets"); pg <= 0 {
		t.Fatalf("pool_gets = %d: scratch-pool counters not wired", pg)
	}
	db.StopRuntimeSampler()
	// Stopping twice must be safe, and the halted sampler's sample stays.
	db.StopRuntimeSampler()
	if after := ringSample(t, db); after != ring {
		t.Fatalf("ring sample changed across stop: %+v, want %+v", after, ring)
	}
	res = one(t, db, "select ts_micros, goroutines from pc.runtime")
	if res.NumRows() != 1 || intCell(t, res, 0, "goroutines") <= 0 ||
		intCell(t, res, 0, "ts_micros") != ring.TSMicros {
		t.Fatalf("pc.runtime after stop:\n%s", res.Format(5))
	}
}

// ringSample returns the one sample the runtime sampler's ring must hold.
func ringSample(t *testing.T, db *predcache.DB) obs.RuntimeSample {
	t.Helper()
	rt := predcache.SinksOf(db).Runtime
	if rt == nil {
		t.Fatal("no runtime sampler")
	}
	s := rt.Samples()
	if len(s) != 1 {
		t.Fatalf("runtime ring holds %d samples, want 1", len(s))
	}
	return s[0]
}

// TestQueryLogging asserts the slog lines carry query/trace correlation.
func TestQueryLogging(t *testing.T) {
	var buf bytes.Buffer
	db := predcache.Open(
		predcache.WithSlowQueryThreshold(time.Nanosecond),
		predcache.WithLogger(slog.New(slog.NewJSONHandler(&buf, nil))),
	)
	schema := predcache.Schema{{Name: "id", Type: predcache.Int64}}
	if err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	b := predcache.NewBatch(schema)
	b.Cols[0].Ints = append(b.Cols[0].Ints, 1)
	b.N = 1
	if err := db.Insert("t", b); err != nil {
		t.Fatal(err)
	}
	one(t, db, "select count(*) from t")                        // slow at 1ns: warn line
	if _, err := db.Query("select * from nosuch"); err == nil { // error line
		t.Fatal("expected error")
	}
	if err := db.Vacuum("t"); err != nil { // lifecycle line
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"msg":"slow query"`, `"msg":"query failed"`, `"msg":"vacuum"`, `"trace_id"`, `"query_id"`} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %s:\n%s", want, out)
		}
	}
	// The trace_id in the failure line resolves against the retained trace.
	res := one(t, db, "select trace_id from pc.traces where error <> ''")
	if res.NumRows() != 1 {
		t.Fatalf("failed query's trace not retained:\n%s", res.Format(5))
	}
	if id := intCell(t, res, 0, "trace_id"); !strings.Contains(out, fmt.Sprintf(`"trace_id":%d`, id)) {
		t.Errorf("log lines never mention the failed trace id %d:\n%s", id, out)
	}
}

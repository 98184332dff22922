package predcache_test

import (
	"slices"
	"strings"
	"sync"
	"testing"

	predcache "github.com/predcache/predcache"
)

// one runs a query that must succeed and returns its result.
func one(t *testing.T, db *predcache.DB, q string) *predcache.Result {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// intCell reads an integer cell by column name.
func intCell(t *testing.T, res *predcache.Result, row int, col string) int64 {
	t.Helper()
	c := res.ColByName(col)
	if c == nil {
		t.Fatalf("no column %q in %v", col, res.ColumnNames())
	}
	if len(c.Ints) > row {
		return c.Ints[row]
	}
	return int64(c.Floats[row]) // aggregates may widen to float
}

// lastLogged reads the newest pc.query_log row: the statement before this
// read.
func lastLogged(t *testing.T, db *predcache.DB) (text, errMsg string) {
	t.Helper()
	res := one(t, db, "select seq, query_text, error from pc.query_log order by seq desc limit 1")
	if res.NumRows() != 1 {
		t.Fatal("pc.query_log is empty")
	}
	return strCell(t, res, 0, "query_text"), strCell(t, res, 0, "error")
}

func TestQueryLogCountsQueries(t *testing.T) {
	db := openWithData(t, 4000)
	queries := []string{
		"select count(*) from t where id < 100",
		"select count(*) from t where id < 100", // repeat: cache hit
		"select grp, sum(val) as s from t group by grp",
	}
	for _, q := range queries {
		one(t, db, q)
	}
	// Recording happens after execution, so the count query sees exactly the
	// prior queries, not itself.
	res := one(t, db, "select count(*) from pc.query_log")
	if got := res.Col(0).Ints[0]; got != int64(len(queries)) {
		t.Fatalf("pc.query_log count = %d, want %d", got, len(queries))
	}
	log := one(t, db, "select seq, query_text, error, cache_hits, rows_scanned, wall_us from pc.query_log order by seq")
	if log.NumRows() != len(queries)+1 {
		t.Fatalf("pc.query_log rows = %d", log.NumRows())
	}
	for i, q := range queries {
		if got := strCell(t, log, i, "query_text"); got != q {
			t.Errorf("row %d query_text = %q, want %q", i, got, q)
		}
		if strCell(t, log, i, "error") != "" || intCell(t, log, i, "seq") != int64(i) {
			t.Errorf("row %d wrong:\n%s", i, log.Format(5))
		}
	}
	if intCell(t, log, 1, "cache_hits") == 0 {
		t.Errorf("repeated query recorded no cache hit:\n%s", log.Format(5))
	}
	if intCell(t, log, 0, "rows_scanned") == 0 || intCell(t, log, 0, "wall_us") < 0 {
		t.Errorf("first query missing counters:\n%s", log.Format(5))
	}
}

func TestQueryLogProjectionFilterAggregate(t *testing.T) {
	db := openWithData(t, 4000)
	one(t, db, "select count(*) from t where id < 50")
	one(t, db, "select count(*) from t where id < 50")
	one(t, db, "select count(*) from t where id < 75")

	// Projection + filter with an alias.
	res := one(t, db, "select q.query_text, q.cache_hits from pc.query_log q where q.cache_hits > 0")
	if res.NumRows() != 1 {
		t.Fatalf("cache-hit queries = %d, want 1\n%s", res.NumRows(), res.Format(10))
	}
	qt := res.ColByName("q.query_text")
	if got := qt.Dict.Value(qt.Ints[0]); !strings.Contains(got, "id < 50") {
		t.Errorf("hit query text = %q", got)
	}

	// Aggregate over the log.
	res = one(t, db, "select count(*) as n, sum(result_rows) as r from pc.query_log where error = ''")
	if intCell(t, res, 0, "n") != 4 { // 3 workload queries + the projection query above
		t.Fatalf("aggregate n = %d\n%s", intCell(t, res, 0, "n"), res.Format(10))
	}

	// ORDER BY + LIMIT over the log.
	res = one(t, db, "select seq from pc.query_log order by seq desc limit 2")
	if res.NumRows() != 2 || intCell(t, res, 0, "seq") <= intCell(t, res, 1, "seq") {
		t.Fatalf("order by seq desc wrong:\n%s", res.Format(10))
	}
}

func TestQueryLogJoinAgainstUserTable(t *testing.T) {
	db := openWithData(t, 2000)
	one(t, db, "select count(*) from t where id < 10")
	one(t, db, "select count(*) from t where id < 20")

	labels := predcache.Schema{
		{Name: "qseq", Type: predcache.Int64},
		{Name: "label", Type: predcache.String},
	}
	if err := db.CreateTable("qlabels", labels); err != nil {
		t.Fatal(err)
	}
	batch := predcache.NewBatch(labels)
	batch.Cols[0].Ints = []int64{0, 1}
	batch.Cols[1].Strings = []string{"first", "second"}
	batch.N = 2
	if err := db.Insert("qlabels", batch); err != nil {
		t.Fatal(err)
	}

	res := one(t, db, `select q.seq, l.label, q.result_rows from pc.query_log q, qlabels l where q.seq = l.qseq order by q.seq`)
	if res.NumRows() != 2 {
		t.Fatalf("join rows = %d\n%s", res.NumRows(), res.Format(10))
	}
	lbl := res.ColByName("l.label")
	if lbl.Dict.Value(lbl.Ints[0]) != "first" || lbl.Dict.Value(lbl.Ints[1]) != "second" {
		t.Fatalf("join labels wrong:\n%s", res.Format(10))
	}
}

func TestCacheSystemTables(t *testing.T) {
	db := openWithData(t, 4000)
	one(t, db, "select count(*) from t where id between 100 and 400")
	one(t, db, "select count(*) from t where id between 100 and 400")

	res := one(t, db, "select table_name, hits, mem_bytes, last_hit_micros from pc.cache_entries")
	if res.NumRows() < 1 {
		t.Fatal("pc.cache_entries empty after cached scan")
	}
	if got := res.ColByName("table_name").Dict.Value(res.ColByName("table_name").Ints[0]); got != "t" {
		t.Errorf("entry table = %q", got)
	}
	if intCell(t, res, 0, "hits") < 1 || intCell(t, res, 0, "mem_bytes") <= 0 || intCell(t, res, 0, "last_hit_micros") <= 0 {
		t.Errorf("entry counters wrong:\n%s", res.Format(10))
	}

	res = one(t, db, "select * from pc.cache_stats")
	if res.NumRows() != 1 || intCell(t, res, 0, "hits") < 1 || intCell(t, res, 0, "inserts") < 1 {
		t.Fatalf("pc.cache_stats wrong:\n%s", res.Format(5))
	}
	if intCell(t, res, 0, "enabled") != 1 {
		t.Errorf("cache not reported enabled")
	}
	// mem_bytes must agree with the entry sum (the satellite invariant,
	// observed through SQL).
	sum := one(t, db, "select sum(mem_bytes) as s from pc.cache_entries")
	stats := one(t, db, "select mem_bytes from pc.cache_stats")
	if intCell(t, sum, 0, "s") != intCell(t, stats, 0, "mem_bytes") {
		t.Errorf("cache_stats.mem_bytes %d != sum(cache_entries.mem_bytes) %d",
			intCell(t, stats, 0, "mem_bytes"), intCell(t, sum, 0, "s"))
	}
}

func TestTableStorageSystemTable(t *testing.T) {
	db := openWithData(t, 3000)
	res := one(t, db, "select column_name, blocks, payload_bytes from pc.table_storage where table_name = 't' order by column_name")
	if res.NumRows() != 4 {
		t.Fatalf("pc.table_storage rows = %d, want 4 columns of t\n%s", res.NumRows(), res.Format(10))
	}
	for i := 0; i < res.NumRows(); i++ {
		if intCell(t, res, i, "blocks") <= 0 || intCell(t, res, i, "payload_bytes") <= 0 {
			t.Errorf("row %d has empty storage:\n%s", i, res.Format(10))
		}
	}
}

func TestMetricsSystemTable(t *testing.T) {
	m := predcache.NewMetrics()
	db := predcache.Open(predcache.WithSlices(2))
	db.EnableMetrics(m)
	if err := db.CreateTable("t", predcache.Schema{{Name: "x", Type: predcache.Int64}}); err != nil {
		t.Fatal(err)
	}
	b := predcache.NewBatch(predcache.Schema{{Name: "x", Type: predcache.Int64}})
	b.Cols[0].Ints = []int64{1, 2, 3}
	b.N = 3
	if err := db.Insert("t", b); err != nil {
		t.Fatal(err)
	}
	one(t, db, "select count(*) from t where x > 1")
	res := one(t, db, "select value from pc.metrics where name = 'predcache_queries_total'")
	if res.NumRows() != 1 || res.Col(0).Floats[0] < 1 {
		t.Fatalf("queries_total missing:\n%s", res.Format(10))
	}
	// Without EnableMetrics the table is empty, not an error.
	db2 := predcache.Open()
	res = one(t, db2, "select count(*) from pc.metrics")
	if res.Col(0).Ints[0] != 0 {
		t.Fatalf("pc.metrics non-empty without a registry")
	}
}

func TestQueryLogRecordsErrors(t *testing.T) {
	db := openWithData(t, 100)
	if _, err := db.Query("select nonexistent from t"); err == nil {
		t.Fatal("expected plan error")
	}
	if _, err := db.Query("selec broken"); err == nil {
		t.Fatal("expected parse error")
	}
	log := one(t, db, "select query_text, error from pc.query_log")
	if log.NumRows() != 2 {
		t.Fatalf("log len = %d", log.NumRows())
	}
	for i := 0; i < log.NumRows(); i++ {
		if strCell(t, log, i, "error") == "" {
			t.Errorf("row %d lost the error:\n%s", i, log.Format(5))
		}
	}
}

func TestQueryLogCapacityAndDisable(t *testing.T) {
	small := predcache.Open(predcache.WithQueryLogCapacity(3), predcache.WithSlices(1))
	if err := small.CreateTable("u", predcache.Schema{{Name: "x", Type: predcache.Int64}}); err != nil {
		t.Fatal(err)
	}
	b := predcache.NewBatch(predcache.Schema{{Name: "x", Type: predcache.Int64}})
	b.Cols[0].Ints = []int64{1}
	b.N = 1
	if err := small.Insert("u", b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		one(t, small, "select count(*) from u")
	}
	log := one(t, small, "select seq from pc.query_log order by seq")
	if log.NumRows() != 3 {
		t.Fatalf("bounded log len = %d, want 3", log.NumRows())
	}
	if seq := intCell(t, log, 0, "seq"); seq != 4 {
		t.Fatalf("oldest retained seq = %d, want 4", seq)
	}

	off := predcache.Open(predcache.WithQueryLogCapacity(0), predcache.WithSlices(1))
	if err := off.CreateTable("u", predcache.Schema{{Name: "x", Type: predcache.Int64}}); err != nil {
		t.Fatal(err)
	}
	if err := off.Insert("u", b); err != nil {
		t.Fatal(err)
	}
	one(t, off, "select count(*) from u")
	res := one(t, off, "select count(*) from pc.query_log")
	if res.Col(0).Ints[0] != 0 {
		t.Fatal("pc.query_log non-empty with recording disabled")
	}
}

func TestCreateTableRejectsSystemSchema(t *testing.T) {
	db := predcache.Open()
	err := db.CreateTable("pc.mine", predcache.Schema{{Name: "x", Type: predcache.Int64}})
	if err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("pc. table creation: %v", err)
	}
	// The exact list: adding or removing a pc.* table must touch this test
	// and the observability ledger in DESIGN.md §16.
	want := []string{
		"pc.alerts", "pc.cache_entries", "pc.cache_stats", "pc.metrics",
		"pc.plan_cache", "pc.query_log", "pc.query_shapes", "pc.runtime",
		"pc.slo", "pc.table_storage", "pc.trace_spans", "pc.traces",
	}
	if names := predcache.SinksOf(db).Tables.Names(); !slices.Equal(names, want) {
		t.Fatalf("system tables: %q, want %q", names, want)
	}
}

func TestExplainVirtualScan(t *testing.T) {
	db := openWithData(t, 100)
	res := one(t, db, "explain select count(*) from pc.query_log where cache_hits > 0")
	text := res.Format(50)
	if !strings.Contains(text, "VirtualScan pc.query_log") {
		t.Fatalf("explain missing VirtualScan:\n%s", text)
	}
	if _, err := db.Query("explain analyze select count(*) from pc.cache_stats"); err != nil {
		t.Fatalf("explain analyze over system table: %v", err)
	}
}

func TestResultStatsAttached(t *testing.T) {
	db := openWithData(t, 4000)
	res := one(t, db, "select count(*) from t where id < 500")
	if res.Stats.RowsQualified != 500 {
		t.Fatalf("Result.Stats.RowsQualified = %d, want 500", res.Stats.RowsQualified)
	}
	if res.Stats != db.LastQueryStats() {
		t.Fatalf("Result.Stats diverges from LastQueryStats")
	}
	if res.Wall <= 0 {
		t.Fatalf("Result.Wall = %v", res.Wall)
	}
}

// TestResultStatsRace is the satellite regression for the LastQueryStats
// race: two goroutines with different filters must each see their own
// counters on their own Result, regardless of interleaving. Run with -race.
func TestResultStatsRace(t *testing.T) {
	// No predicate cache, so RowsQualified is deterministic per filter on
	// every iteration.
	db := openWithData(t, 4000, predcache.WithoutPredicateCache())
	var wg sync.WaitGroup
	run := func(query string, wantQualified int64) {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			res, err := db.Query(query)
			if err != nil {
				t.Errorf("%s: %v", query, err)
				return
			}
			if res.Stats.RowsQualified != wantQualified {
				t.Errorf("%s: RowsQualified = %d, want %d", query, res.Stats.RowsQualified, wantQualified)
				return
			}
		}
	}
	wg.Add(2)
	go run("select count(*) from t where id < 100", 100)
	go run("select count(*) from t where id < 2000", 2000)
	wg.Wait()
}

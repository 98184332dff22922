package predcache_test

import (
	"fmt"
	"strings"
	"testing"

	predcache "github.com/predcache/predcache"
)

func openWithData(t *testing.T, rows int, opts ...predcache.Option) *predcache.DB {
	t.Helper()
	db := predcache.Open(append([]predcache.Option{predcache.WithSlices(2)}, opts...)...)
	schema := predcache.Schema{
		{Name: "id", Type: predcache.Int64},
		{Name: "grp", Type: predcache.String},
		{Name: "val", Type: predcache.Float64},
		{Name: "day", Type: predcache.Date},
	}
	if err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	batch := predcache.NewBatch(schema)
	for i := 0; i < rows; i++ {
		batch.Cols[0].Ints = append(batch.Cols[0].Ints, int64(i))
		batch.Cols[1].Strings = append(batch.Cols[1].Strings, []string{"a", "b", "c"}[i%3])
		batch.Cols[2].Floats = append(batch.Cols[2].Floats, float64(i%100))
		batch.Cols[3].Ints = append(batch.Cols[3].Ints, int64(20000+i%365))
	}
	batch.N = rows
	if err := db.Insert("t", batch); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenOptions(t *testing.T) {
	db := predcache.Open(
		predcache.WithSlices(3),
		predcache.WithMaxWorkers(1),
		predcache.WithCacheConfig(predcache.CacheConfig{Kind: predcache.RangeIndex, MaxRanges: 64}),
	)
	if db.PredicateCache() == nil {
		t.Fatal("cache missing")
	}
	off := predcache.Open(predcache.WithoutPredicateCache())
	if off.PredicateCache() != nil {
		t.Fatal("cache not disabled")
	}
	if off.CacheStats() != (predcache.CacheStats{}) {
		t.Fatal("disabled cache stats nonzero")
	}
}

func TestQueryAndStats(t *testing.T) {
	db := openWithData(t, 9000)
	res, err := db.Query("select grp, count(*) as n from t where val >= 50 group by grp order by grp")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Fatalf("groups %d", res.NumRows())
	}
	total := int64(0)
	for i := 0; i < 3; i++ {
		total += res.ColByName("n").Ints[i]
	}
	if total != 4500 {
		t.Fatalf("total %d want 4500", total)
	}
	if db.LastQueryStats().RowsScanned == 0 {
		t.Fatal("no stats recorded")
	}
	if db.TableRows("t") != 9000 || db.TableRows("missing") != 0 {
		t.Fatal("TableRows")
	}
}

func TestQueryErrors(t *testing.T) {
	db := openWithData(t, 10)
	if _, err := db.Query("select zzz from t"); err == nil {
		t.Fatal("bad column accepted")
	}
	if _, err := db.Query("not sql"); err == nil {
		t.Fatal("bad sql accepted")
	}
	if err := db.CreateTable("t", predcache.Schema{{Name: "x", Type: predcache.Int64}}); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if err := db.Insert("missing", predcache.NewBatch(nil)); err == nil {
		t.Fatal("insert into missing table accepted")
	}
	if err := db.Load("missing", predcache.NewBatch(nil)); err == nil {
		t.Fatal("load into missing table accepted")
	}
	if err := db.Vacuum("missing"); err == nil {
		t.Fatal("vacuum of missing table accepted")
	}
	if _, err := db.DeleteWhere("missing", nil); err == nil {
		t.Fatal("delete on missing table accepted")
	}
	if _, err := db.UpdateWhere("missing", nil, nil); err == nil {
		t.Fatal("update on missing table accepted")
	}
}

func TestParseWhere(t *testing.T) {
	db := openWithData(t, 3000)
	pred, err := predcache.ParseWhere("grp = 'a' and val < 10")
	if err != nil {
		t.Fatal(err)
	}
	n, err := db.DeleteWhere("t", pred)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing deleted")
	}
	res, err := db.Query("select count(*) from t where grp = 'a' and val < 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Col(0).Ints[0] != 0 {
		t.Fatal("deleted rows still visible")
	}
	if _, err := predcache.ParseWhere("not valid ((("); err == nil {
		t.Fatal("bad predicate accepted")
	}
	if _, err := predcache.ParseWhere("a = 1 trailing"); err == nil {
		t.Fatal("trailing input accepted")
	}
}

func TestUpdateWhereRoundTrip(t *testing.T) {
	db := openWithData(t, 2000)
	pred, _ := predcache.ParseWhere("val = 99")
	n, err := db.UpdateWhere("t", pred, func(b *predcache.Batch) {
		for i := range b.Cols[2].Floats {
			b.Cols[2].Floats[i] = 0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("updated %d want 20", n)
	}
	res, _ := db.Query("select count(*) from t where val = 99")
	if res.Col(0).Ints[0] != 0 {
		t.Fatal("updated rows still match old value")
	}
	res, _ = db.Query("select count(*) from t")
	if res.Col(0).Ints[0] != 2000 {
		t.Fatalf("row count changed: %d", res.Col(0).Ints[0])
	}
	// Zero-match update still bumps versions (result caches must notice).
	zero, _ := predcache.ParseWhere("val = 12345")
	if n, err := db.UpdateWhere("t", zero, func(*predcache.Batch) {}); err != nil || n != 0 {
		t.Fatalf("zero update: %d %v", n, err)
	}
}

func TestSortKeyAndLoad(t *testing.T) {
	db := predcache.Open()
	schema := predcache.Schema{{Name: "k", Type: predcache.Int64}, {Name: "v", Type: predcache.Float64}}
	if err := db.CreateTable("s", schema, "k"); err != nil {
		t.Fatal(err)
	}
	batch := predcache.NewBatch(schema)
	for i := 5000; i > 0; i-- {
		batch.Cols[0].Ints = append(batch.Cols[0].Ints, int64(i))
		batch.Cols[1].Floats = append(batch.Cols[1].Floats, float64(i))
	}
	batch.N = 5000
	if err := db.Load("s", batch); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("select k from s where k <= 3 order by k")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 || res.Col(0).Ints[0] != 1 {
		t.Fatalf("sorted load wrong: %v", res.Format(5))
	}
}

func TestRepeatedQueryUsesCache(t *testing.T) {
	db := openWithData(t, 30000)
	q := "select count(*) from t where day between 20100 and 20110 and grp = 'b'"
	r1, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Col(0).Ints[0] != r2.Col(0).Ints[0] {
		t.Fatal("results differ")
	}
	if db.CacheStats().Hits == 0 {
		t.Fatal("no cache hit")
	}
	if db.LastQueryStats().CacheHits != 1 {
		t.Fatal("per-query stats missing the hit")
	}
}

func TestResultFormatting(t *testing.T) {
	db := openWithData(t, 100)
	res, err := db.Query("select id, grp, val, day from t limit 2")
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format(10)
	if !strings.Contains(out, "grp") || !strings.Contains(out, "2024-") {
		t.Fatalf("format output:\n%s", out)
	}
	names := res.ColumnNames()
	if len(names) != 4 || names[3] != "day" {
		t.Fatalf("names %v", names)
	}
}

func TestExplainAndCacheEntries(t *testing.T) {
	db := openWithData(t, 2000)
	out := planText(t, db, "explain select grp, count(*) from t where val > 50 group by grp order by grp limit 2")
	for _, want := range []string{"Scan t", "Aggregate", "Sort", "Limit 2", "filter=(> val 50)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
	if _, err := db.Query("explain select nope from t"); err == nil {
		t.Fatal("bad explain accepted")
	}
	// Entries appear after executing.
	const entries = "select table_name, mem_bytes, key from pc.cache_entries"
	if res := one(t, db, entries); res.NumRows() != 0 {
		t.Fatalf("entries before any query:\n%s", res.Format(5))
	}
	if _, err := db.Query("select count(*) from t where val > 50"); err != nil {
		t.Fatal(err)
	}
	res := one(t, db, entries)
	if res.NumRows() != 1 || strCell(t, res, 0, "table_name") != "t" || intCell(t, res, 0, "mem_bytes") <= 0 {
		t.Fatalf("entries:\n%s", res.Format(5))
	}
	if key := strCell(t, res, 0, "key"); !strings.Contains(key, "(> val 50)") {
		t.Fatalf("entry key %q", key)
	}
	off := predcache.Open(predcache.WithoutPredicateCache())
	if res := one(t, off, entries); res.NumRows() != 0 {
		t.Fatal("entries with cache disabled")
	}
}

// Vacuum renumbers rows, so every entry of the table is stale afterwards. It
// drops them on the spot: waiting for the next lookup of each key would keep
// the entries of predicates that never come back for ever.
func TestVacuumDropsTableEntries(t *testing.T) {
	db := openWithData(t, 5000)
	for i := 0; i < 20; i++ {
		one(t, db, fmt.Sprintf("select count(*) as n from t where id < %d", 100+i))
	}
	if st := db.CacheStats(); st.Entries != 20 {
		t.Fatalf("entries before vacuum = %d, want 20", st.Entries)
	}
	if _, err := db.DeleteWhere("t", mustPred(t, "id < 10")); err != nil {
		t.Fatal(err)
	}
	if err := db.Vacuum("t"); err != nil {
		t.Fatal(err)
	}
	st := db.CacheStats()
	if st.Entries != 0 || st.MemBytes != 0 || st.Invalidations != 20 {
		t.Fatalf("after vacuum: %+v", st)
	}
	if got := intCell(t, one(t, db, "select count(*) as n from t where id < 100"), 0, "n"); got != 90 {
		t.Fatalf("count after vacuum = %d, want 90", got)
	}
}

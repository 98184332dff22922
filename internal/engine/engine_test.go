package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/storage"
)

// testDB builds a catalog with a fact table ("items") and a dimension table
// ("dims") plus the raw batches for reference computation.
type testDB struct {
	cat   *storage.Catalog
	items *storage.Table
	dims  *storage.Table
	ib    *storage.Batch // items reference data
	db    *storage.Batch // dims reference data
	// deleted[row] marks logically deleted item rows (global row order =
	// batch order, which differs from physical placement; reference
	// computations use the batch).
	deletedItems map[int]bool
}

func itemsSchema() storage.Schema {
	return storage.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "dim_id", Type: storage.Int64},
		{Name: "qty", Type: storage.Int64},
		{Name: "price", Type: storage.Float64},
		{Name: "mode", Type: storage.String},
		{Name: "day", Type: storage.Date},
	}
}

func dimsSchema() storage.Schema {
	return storage.Schema{
		{Name: "d_id", Type: storage.Int64},
		{Name: "d_cat", Type: storage.String},
		{Name: "d_rank", Type: storage.Int64},
	}
}

func itemsBatch(n int, seed int64, numDims int) *storage.Batch {
	r := rand.New(rand.NewSource(seed))
	modes := []string{"AIR", "MAIL", "SHIP", "TRUCK", "RAIL"}
	b := storage.NewBatch(itemsSchema())
	for i := 0; i < n; i++ {
		b.Cols[0].Ints = append(b.Cols[0].Ints, int64(i))
		b.Cols[1].Ints = append(b.Cols[1].Ints, int64(r.Intn(numDims)))
		b.Cols[2].Ints = append(b.Cols[2].Ints, int64(r.Intn(50)+1))
		b.Cols[3].Floats = append(b.Cols[3].Floats, float64(r.Intn(10000))/100)
		b.Cols[4].Strings = append(b.Cols[4].Strings, modes[r.Intn(len(modes))])
		b.Cols[5].Ints = append(b.Cols[5].Ints, int64(9000+r.Intn(365)))
	}
	b.N = n
	return b
}

// deleteRows deletes rows of one slice of tbl in a statement of its own.
func deleteRows(cat *storage.Catalog, tbl *storage.Table, slice int, rows []int) {
	perSlice := make([][]int, tbl.NumSlices())
	perSlice[slice] = rows
	_ = cat.Commit(func(xid uint64) error { tbl.DeleteRows(perSlice, xid); return nil }) // apply cannot fail
}

func newTestDB(t testing.TB, itemRows, dimRows, slices int, seed int64) *testDB {
	t.Helper()
	cat := storage.NewCatalog()
	items, err := cat.CreateTable("items", itemsSchema(), slices)
	if err != nil {
		t.Fatal(err)
	}
	dims, err := cat.CreateTable("dims", dimsSchema(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ib := itemsBatch(itemRows, seed, dimRows)
	if err := cat.Commit(func(xid uint64) error { return items.Append(ib, xid) }); err != nil {
		t.Fatal(err)
	}
	cats := []string{"A", "B", "C", "D"}
	r := rand.New(rand.NewSource(seed + 1))
	db := storage.NewBatch(dimsSchema())
	for i := 0; i < dimRows; i++ {
		db.Cols[0].Ints = append(db.Cols[0].Ints, int64(i))
		db.Cols[1].Strings = append(db.Cols[1].Strings, cats[r.Intn(len(cats))])
		db.Cols[2].Ints = append(db.Cols[2].Ints, int64(r.Intn(100)))
	}
	db.N = dimRows
	if err := cat.Commit(func(xid uint64) error { return dims.Append(db, xid) }); err != nil {
		t.Fatal(err)
	}
	return &testDB{cat: cat, items: items, dims: dims, ib: ib, db: db, deletedItems: map[int]bool{}}
}

func (d *testDB) exec(t testing.TB, n Node, cache *core.Cache) (*Relation, *storage.ScanStats) {
	t.Helper()
	stats := &storage.ScanStats{}
	ec := &ExecCtx{Catalog: d.cat, Cache: cache, Snapshot: d.cat.Snapshot(), Stats: stats}
	rel, err := n.Execute(ec)
	if err != nil {
		t.Fatal(err)
	}
	return rel, stats
}

// sortedIDs extracts and sorts the "id" column for order-insensitive
// comparison.
func sortedIDs(t testing.TB, rel *Relation) []int64 {
	t.Helper()
	c := rel.ColByName("id")
	if c == nil {
		t.Fatal("no id column")
	}
	out := append([]int64(nil), c.Ints...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refItemIDs computes qualifying item ids from the raw batch.
func (d *testDB) refItemIDs(f func(row int) bool) []int64 {
	var out []int64
	for i := 0; i < d.ib.N; i++ {
		if d.deletedItems[i] {
			continue
		}
		if f(i) {
			out = append(out, d.ib.Cols[0].Ints[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func qtyPred(min int64) expr.Pred { return expr.Cmp("qty", expr.Ge, expr.Int(min)) }

func TestScanNoFilter(t *testing.T) {
	d := newTestDB(t, 5000, 10, 4, 1)
	rel, stats := d.exec(t, &Scan{Table: "items"}, nil)
	if rel.NumRows() != 5000 {
		t.Fatalf("rows %d", rel.NumRows())
	}
	if stats.RowsScanned.Load() != 5000 {
		t.Fatalf("rows scanned %d", stats.RowsScanned.Load())
	}
	if !sameIDs(sortedIDs(t, rel), d.refItemIDs(func(int) bool { return true })) {
		t.Fatal("ids mismatch")
	}
}

func TestScanFilterMatchesReference(t *testing.T) {
	d := newTestDB(t, 7000, 10, 4, 2)
	pred := expr.And(qtyPred(40), expr.Cmp("mode", expr.Eq, expr.Str("AIR")))
	rel, _ := d.exec(t, &Scan{Table: "items", Filter: pred}, nil)
	want := d.refItemIDs(func(r int) bool {
		return d.ib.Cols[2].Ints[r] >= 40 && d.ib.Cols[4].Strings[r] == "AIR"
	})
	if !sameIDs(sortedIDs(t, rel), want) {
		t.Fatal("filtered ids mismatch")
	}
}

func TestScanProjection(t *testing.T) {
	d := newTestDB(t, 1000, 10, 2, 3)
	rel, _ := d.exec(t, &Scan{Table: "items", Project: []string{"id", "price"}}, nil)
	if rel.NumCols() != 2 || rel.ColByName("price") == nil {
		t.Fatal("projection wrong")
	}
	_, err := (&Scan{Table: "items", Project: []string{"nope"}}).Execute(&ExecCtx{Catalog: d.cat, Snapshot: d.cat.Snapshot()})
	if err == nil {
		t.Fatal("bad projection accepted")
	}
	_, err = (&Scan{Table: "missing"}).Execute(&ExecCtx{Catalog: d.cat, Snapshot: d.cat.Snapshot()})
	if err == nil {
		t.Fatal("missing table accepted")
	}
}

func TestScanAlias(t *testing.T) {
	d := newTestDB(t, 100, 10, 1, 4)
	rel, _ := d.exec(t, &Scan{Table: "items", Alias: "i", Project: []string{"id"}}, nil)
	if rel.ColByName("i.id") == nil {
		t.Fatal("alias not applied")
	}
}

// cacheEquivalence runs the same scan cold and cached under both entry kinds
// and checks identical results plus reduced scan work on the hit.
func cacheEquivalence(t *testing.T, kind core.EntryKind) {
	d := newTestDB(t, 20000, 10, 4, 5)
	// A selective multi-column conjunction: every per-column zone map spans
	// the whole domain (nothing prunes), but only a handful of rows — and
	// hence blocks — qualify, which is exactly where the cache pays off.
	p := expr.And(
		expr.Cmp("qty", expr.Eq, expr.Int(50)),
		expr.Cmp("mode", expr.Eq, expr.Str("AIR")),
		expr.Between("day", expr.Int(9050), expr.Int(9060)),
	)
	scan := &Scan{Table: "items", Filter: p, Project: []string{"id"}}

	coldRel, coldStats := d.exec(t, scan, nil)
	want := sortedIDs(t, coldRel)

	cache := core.NewCache(core.Config{Kind: kind, MaxRanges: 64, RowsPerBlock: 1000})
	warmRel1, s1 := d.exec(t, scan, cache)
	if !sameIDs(sortedIDs(t, warmRel1), want) {
		t.Fatal("first cached run mismatch")
	}
	if s1.CacheMisses.Load() != 1 || s1.CacheHits.Load() != 0 {
		t.Fatalf("first run hit/miss %d/%d", s1.CacheHits.Load(), s1.CacheMisses.Load())
	}
	warmRel2, s2 := d.exec(t, scan, cache)
	if !sameIDs(sortedIDs(t, warmRel2), want) {
		t.Fatal("second cached run mismatch")
	}
	if s2.CacheHits.Load() != 1 {
		t.Fatal("no cache hit on second run")
	}
	if s2.RowsScanned.Load() >= coldStats.RowsScanned.Load() {
		t.Fatalf("cache did not reduce rows scanned: %d vs %d", s2.RowsScanned.Load(), coldStats.RowsScanned.Load())
	}
}

func TestScanCacheRangeEquivalence(t *testing.T)  { cacheEquivalence(t, core.RangeIndex) }
func TestScanCacheBitmapEquivalence(t *testing.T) { cacheEquivalence(t, core.BitmapIndex) }

func TestScanCacheSurvivesInserts(t *testing.T) {
	d := newTestDB(t, 10000, 10, 4, 6)
	p := qtyPred(48)
	scan := &Scan{Table: "items", Filter: p, Project: []string{"id"}}
	// Range entries stay precise on uniformly spread matches; bitmap
	// entries would cover every block here.
	cache := core.NewCache(core.Config{Kind: core.RangeIndex, MaxRanges: 16384})

	d.exec(t, scan, cache) // miss, populate

	// Append more rows (ids continue from 10000).
	extra := itemsBatch(3000, 60, 10)
	for i := 0; i < 3000; i++ {
		extra.Cols[0].Ints[i] += 10000
	}
	if err := d.cat.Commit(func(xid uint64) error { return d.items.Append(extra, xid) }); err != nil {
		t.Fatal(err)
	}
	// Reference now includes appended rows.
	var want []int64
	for i := 0; i < d.ib.N; i++ {
		if d.ib.Cols[2].Ints[i] >= 48 {
			want = append(want, d.ib.Cols[0].Ints[i])
		}
	}
	for i := 0; i < extra.N; i++ {
		if extra.Cols[2].Ints[i] >= 48 {
			want = append(want, extra.Cols[0].Ints[i])
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	rel, s := d.exec(t, scan, cache)
	if s.CacheHits.Load() != 1 {
		t.Fatal("insert invalidated the entry (must not)")
	}
	if !sameIDs(sortedIDs(t, rel), want) {
		t.Fatal("cached scan missed appended rows")
	}
	// Third run: watermark advanced, so the tail is no longer rescanned.
	rel3, s3 := d.exec(t, scan, cache)
	if !sameIDs(sortedIDs(t, rel3), want) {
		t.Fatal("third run mismatch")
	}
	if s3.RowsScanned.Load() >= s.RowsScanned.Load() {
		t.Fatalf("extend did not advance watermark: %d vs %d", s3.RowsScanned.Load(), s.RowsScanned.Load())
	}
	if cache.Stats().Extends == 0 {
		t.Fatal("no extends recorded")
	}
}

// TestScanCacheExtendEqualsColdInsert grows entries past their watermarks
// through both kinds of hit and holds each to what a cold scan of the same
// data inserts. A plain-key hit extends the plain entry from its watermark
// and inserts the semi-join entry from the scan's full semi-join ranges; a
// semi-join-entry hit extends that entry from its watermark.
func TestScanCacheExtendEqualsColdInsert(t *testing.T) {
	d := newTestDB(t, 10000, 100, 4, 16)
	scan := func() *Scan {
		return &Scan{Table: "items", Filter: expr.Cmp("qty", expr.Ge, expr.Int(20)), Project: []string{"id", "dim_id"}}
	}
	join := &Join{
		Left:     scan(),
		Right:    &Scan{Table: "dims", Filter: expr.Cmp("d_rank", expr.Lt, expr.Int(20))},
		LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: InnerJoin, PushSemiJoin: true,
	}
	// Each batch's first row passes both filters, so an entry's first row
	// past its watermark always counts.
	hitDim := int64(-1)
	for i := 0; i < d.db.N && hitDim < 0; i++ {
		if d.db.Cols[2].Ints[i] < 20 {
			hitDim = d.db.Cols[0].Ints[i]
		}
	}
	next := 10000
	appendItems := func(seed int64) {
		extra := itemsBatch(3000, seed, 100)
		for i := range extra.Cols[0].Ints {
			extra.Cols[0].Ints[i] = int64(next + i)
		}
		extra.Cols[1].Ints[0], extra.Cols[2].Ints[0] = hitDim, 20
		next += extra.N
		if err := d.cat.Commit(func(xid uint64) error { return d.items.Append(extra, xid) }); err != nil {
			t.Fatal(err)
		}
	}
	cfg := core.Config{Kind: core.RangeIndex, MaxRanges: 16384}
	cache := core.NewCache(cfg)
	d.exec(t, scan(), cache) // miss: inserts the plain entry
	appendItems(161)
	d.exec(t, join, cache) // plain-key hit: extends it, inserts the semi-join entry
	appendItems(162)
	d.exec(t, join, cache) // semi-join-entry hit: extends it
	appendItems(163)
	d.exec(t, scan(), cache) // plain-key hit
	d.exec(t, join, cache)   // semi-join-entry hit
	// Four items hits, and the dims scan's two.
	if st := cache.Stats(); st.Hits != 6 || st.Extends == 0 {
		t.Fatalf("cache stats %+v, want 6 hits and extends", st)
	}

	cold := core.NewCache(cfg)
	d.exec(t, join, cold) // misses: inserts the dims entry and both items entries
	got, want := cacheContents(cache), cacheContents(cold)
	if len(want) != 3 || len(got) != len(want) {
		t.Fatalf("%d entries, cold scans insert %d (want 3)", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Fatalf("no entry %s", key)
		}
		if !reflect.DeepEqual(g.PerSlice, w.PerSlice) || !reflect.DeepEqual(g.Watermarks, w.Watermarks) {
			t.Errorf("entry %s:\nextended %v %v\ncold     %v %v", key, g.Watermarks, g.PerSlice, w.Watermarks, w.PerSlice)
		}
	}
}

func TestScanCacheSurvivesDeletes(t *testing.T) {
	d := newTestDB(t, 8000, 10, 2, 7)
	p := qtyPred(45)
	scan := &Scan{Table: "items", Filter: p, Project: []string{"id"}}
	cache := core.NewCache(core.DefaultConfig())
	d.exec(t, scan, cache)

	// Delete some physical rows that qualify: find them via a scan of slice
	// row numbers — easiest is deleting the first 50 rows of slice 0.
	rows := make([]int, 50)
	for i := range rows {
		rows[i] = i
	}
	// Record which ids those are to fix the reference.
	unlock := d.items.RLockScan()
	scratch := make([]int64, storage.BlockSize)
	idCol := d.items.Slice(0).Column(0)
	idCol.ReadIntBlock(0, scratch)
	deletedIDs := map[int64]bool{}
	for i := 0; i < 50; i++ {
		deletedIDs[scratch[i]] = true
	}
	unlock()
	deleteRows(d.cat, d.items, 0, rows)

	var want []int64
	for i := 0; i < d.ib.N; i++ {
		if d.ib.Cols[2].Ints[i] >= 45 && !deletedIDs[d.ib.Cols[0].Ints[i]] {
			want = append(want, d.ib.Cols[0].Ints[i])
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	rel, s := d.exec(t, scan, cache)
	if s.CacheHits.Load() != 1 {
		t.Fatal("delete invalidated plain entry (must not)")
	}
	if !sameIDs(sortedIDs(t, rel), want) {
		t.Fatal("cached scan served deleted rows")
	}
}

func TestScanCacheInvalidatedByVacuum(t *testing.T) {
	d := newTestDB(t, 5000, 10, 2, 8)
	p := qtyPred(40)
	scan := &Scan{Table: "items", Filter: p, Project: []string{"id"}}
	cache := core.NewCache(core.DefaultConfig())
	d.exec(t, scan, cache)
	deleteRows(d.cat, d.items, 0, []int{0, 1, 2})
	d.items.Vacuum(d.cat.Snapshot())

	rel, s := d.exec(t, scan, cache)
	if s.CacheHits.Load() != 0 {
		t.Fatal("vacuum did not invalidate")
	}
	// Results still correct from a cold scan (reference must drop deleted).
	unlockedIDs := sortedIDs(t, rel)
	if len(unlockedIDs) == 0 {
		t.Fatal("empty result")
	}
	// And the re-populated entry works again.
	rel2, s2 := d.exec(t, scan, cache)
	if s2.CacheHits.Load() != 1 {
		t.Fatal("entry not repopulated")
	}
	if !sameIDs(sortedIDs(t, rel2), unlockedIDs) {
		t.Fatal("post-vacuum cached mismatch")
	}
}

func TestScanForceInsertOnly(t *testing.T) {
	d := newTestDB(t, 3000, 10, 2, 9)
	scan := &Scan{Table: "items", Filter: qtyPred(30), Project: []string{"id"}}
	cache := core.NewCache(core.DefaultConfig())
	stats := &storage.ScanStats{}
	ec := &ExecCtx{Catalog: d.cat, Cache: cache, Snapshot: d.cat.Snapshot(), Stats: stats, ForceCacheInsertOnly: true}
	if _, err := scan.Execute(ec); err != nil {
		t.Fatal(err)
	}
	if _, err := scan.Execute(ec); err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits.Load() != 0 {
		t.Fatal("insert-only mode used the cache")
	}
	if cache.Stats().Inserts < 2 {
		t.Fatal("insert-only mode did not insert")
	}
}

// --- joins ---

func TestInnerJoinMatchesReference(t *testing.T) {
	d := newTestDB(t, 4000, 50, 2, 10)
	j := &Join{
		Left:      &Scan{Table: "items", Filter: qtyPred(25)},
		Right:     &Scan{Table: "dims", Filter: expr.Cmp("d_rank", expr.Lt, expr.Int(30))},
		LeftKeys:  []string{"dim_id"},
		RightKeys: []string{"d_id"},
		Type:      InnerJoin,
	}
	rel, _ := d.exec(t, j, nil)

	// Reference nested loop.
	dimOK := map[int64]bool{}
	for i := 0; i < d.db.N; i++ {
		if d.db.Cols[2].Ints[i] < 30 {
			dimOK[d.db.Cols[0].Ints[i]] = true
		}
	}
	var want []int64
	for i := 0; i < d.ib.N; i++ {
		if d.ib.Cols[2].Ints[i] >= 25 && dimOK[d.ib.Cols[1].Ints[i]] {
			want = append(want, d.ib.Cols[0].Ints[i])
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if !sameIDs(sortedIDs(t, rel), want) {
		t.Fatalf("join mismatch: %d vs %d rows", rel.NumRows(), len(want))
	}
	// Build columns present.
	if rel.ColByName("d_cat") == nil {
		t.Fatal("build columns missing")
	}
}

func TestSemiAndAntiJoin(t *testing.T) {
	d := newTestDB(t, 2000, 40, 2, 11)
	dimFilter := expr.Cmp("d_rank", expr.Ge, expr.Int(50))
	semi := &Join{
		Left: &Scan{Table: "items"}, Right: &Scan{Table: "dims", Filter: dimFilter},
		LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: SemiJoin,
	}
	anti := &Join{
		Left: &Scan{Table: "items"}, Right: &Scan{Table: "dims", Filter: dimFilter},
		LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: AntiJoin,
	}
	semiRel, _ := d.exec(t, semi, nil)
	antiRel, _ := d.exec(t, anti, nil)
	if semiRel.NumRows()+antiRel.NumRows() != 2000 {
		t.Fatalf("semi+anti != total: %d + %d", semiRel.NumRows(), antiRel.NumRows())
	}
	dimOK := map[int64]bool{}
	for i := 0; i < d.db.N; i++ {
		if d.db.Cols[2].Ints[i] >= 50 {
			dimOK[d.db.Cols[0].Ints[i]] = true
		}
	}
	var wantSemi []int64
	for i := 0; i < d.ib.N; i++ {
		if dimOK[d.ib.Cols[1].Ints[i]] {
			wantSemi = append(wantSemi, d.ib.Cols[0].Ints[i])
		}
	}
	sort.Slice(wantSemi, func(i, j int) bool { return wantSemi[i] < wantSemi[j] })
	if !sameIDs(sortedIDs(t, semiRel), wantSemi) {
		t.Fatal("semi join mismatch")
	}
	// Semi output must not include build columns.
	if semiRel.ColByName("d_cat") != nil {
		t.Fatal("semi join leaked build columns")
	}
}

func TestLeftOuterJoin(t *testing.T) {
	d := newTestDB(t, 1000, 10, 1, 12)
	// Dims restricted to rank < 10: most items unmatched.
	j := &Join{
		Left: &Scan{Table: "items"}, Right: &Scan{Table: "dims", Filter: expr.Cmp("d_rank", expr.Lt, expr.Int(10))},
		LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: LeftOuterJoin,
	}
	rel, _ := d.exec(t, j, nil)
	if rel.NumRows() < 1000 {
		t.Fatalf("left join lost probe rows: %d", rel.NumRows())
	}
	matched := rel.ColByName("__matched")
	if matched == nil {
		t.Fatal("no __matched column")
	}
	dimOK := map[int64]bool{}
	for i := 0; i < d.db.N; i++ {
		if d.db.Cols[2].Ints[i] < 10 {
			dimOK[d.db.Cols[0].Ints[i]] = true
		}
	}
	ids := rel.ColByName("id")
	dimIDs := rel.ColByName("dim_id")
	for row := 0; row < rel.NumRows(); row++ {
		want := int64(0)
		if dimOK[dimIDs.Ints[row]] {
			want = 1
		}
		if matched.Ints[row] != want {
			t.Fatalf("row %d (id %d): matched=%d want %d", row, ids.Ints[row], matched.Ints[row], want)
		}
	}
}

func TestJoinErrors(t *testing.T) {
	d := newTestDB(t, 100, 10, 1, 13)
	bad := &Join{Left: &Scan{Table: "items"}, Right: &Scan{Table: "dims"},
		LeftKeys: []string{"dim_id", "qty"}, RightKeys: []string{"d_id"}, Type: InnerJoin}
	if _, err := bad.Execute(&ExecCtx{Catalog: d.cat, Snapshot: d.cat.Snapshot()}); err == nil {
		t.Fatal("key arity mismatch accepted")
	}
	bad2 := &Join{Left: &Scan{Table: "items"}, Right: &Scan{Table: "dims"},
		LeftKeys: []string{"nope"}, RightKeys: []string{"d_id"}, Type: InnerJoin}
	if _, err := bad2.Execute(&ExecCtx{Catalog: d.cat, Snapshot: d.cat.Snapshot()}); err == nil {
		t.Fatal("unknown key accepted")
	}
	// Key types are checked position by position: a string never matches a
	// float, in a composite key too.
	bad3 := &Join{Left: &Scan{Table: "items"}, Right: &Scan{Table: "dims"},
		LeftKeys: []string{"dim_id", "price"}, RightKeys: []string{"d_id", "d_cat"}, Type: InnerJoin}
	if _, err := bad3.Execute(&ExecCtx{Catalog: d.cat, Snapshot: d.cat.Snapshot()}); err == nil ||
		!strings.Contains(err.Error(), "cannot match") {
		t.Fatalf("float key against string key: err %v", err)
	}
}

func TestSemiJoinPushdownCachesJoinResult(t *testing.T) {
	d := newTestDB(t, 20000, 100, 4, 14)
	dimFilter := expr.Cmp("d_rank", expr.Lt, expr.Int(5)) // selective
	mkJoin := func() *Join {
		return &Join{
			Left:         &Scan{Table: "items", Project: []string{"id", "dim_id"}},
			Right:        &Scan{Table: "dims", Filter: dimFilter},
			LeftKeys:     []string{"dim_id"},
			RightKeys:    []string{"d_id"},
			Type:         InnerJoin,
			PushSemiJoin: true,
		}
	}
	cold, coldStats := d.exec(t, mkJoin(), nil)
	want := sortedIDs(t, cold)

	cache := core.NewCache(core.Config{Kind: core.RangeIndex, MaxRanges: 16384})
	r1, _ := d.exec(t, mkJoin(), cache)
	if !sameIDs(sortedIDs(t, r1), want) {
		t.Fatal("first cached run mismatch")
	}
	r2, s2 := d.exec(t, mkJoin(), cache)
	if !sameIDs(sortedIDs(t, r2), want) {
		t.Fatal("second cached run mismatch")
	}
	// The semi-join entry must make the probe scan far cheaper: the dims
	// filter keeps ~5% of dims, so ~5% of items qualify.
	if s2.RowsScanned.Load() >= coldStats.RowsScanned.Load()/2 {
		t.Fatalf("semi-join entry not used: %d vs cold %d", s2.RowsScanned.Load(), coldStats.RowsScanned.Load())
	}

	// DML on the build side must invalidate the semi-join entry but the scan
	// must still return correct (new) results.
	deleteRows(d.cat, d.dims, 0, []int{0})
	r3, _ := d.exec(t, mkJoin(), cache)
	// Recompute reference: dim 0 deleted.
	dimOK := map[int64]bool{}
	for i := 0; i < d.db.N; i++ {
		if d.db.Cols[2].Ints[i] < 5 && d.db.Cols[0].Ints[i] != 0 {
			dimOK[d.db.Cols[0].Ints[i]] = true
		}
	}
	var want3 []int64
	for i := 0; i < d.ib.N; i++ {
		if dimOK[d.ib.Cols[1].Ints[i]] {
			want3 = append(want3, d.ib.Cols[0].Ints[i])
		}
	}
	sort.Slice(want3, func(i, j int) bool { return want3[i] < want3[j] })
	if !sameIDs(sortedIDs(t, r3), want3) {
		t.Fatal("stale semi-join entry served after build-side DML")
	}
}

func TestSemiJoinDisable(t *testing.T) {
	d := newTestDB(t, 5000, 100, 2, 15)
	join := func(push bool) *Join {
		return &Join{
			Left:         &Scan{Table: "items", Project: []string{"id", "dim_id"}},
			Right:        &Scan{Table: "dims", Filter: expr.Cmp("d_rank", expr.Lt, expr.Int(5))},
			LeftKeys:     []string{"dim_id"},
			RightKeys:    []string{"d_id"},
			Type:         InnerJoin,
			PushSemiJoin: push,
		}
	}
	rel, _ := d.exec(t, join(false), nil)
	rel2, _ := d.exec(t, join(true), nil)
	if !sameIDs(sortedIDs(t, rel), sortedIDs(t, rel2)) {
		t.Fatal("disable semi-join changed results")
	}
}

// --- aggregation ---

func TestAggGlobal(t *testing.T) {
	d := newTestDB(t, 3000, 10, 2, 16)
	agg := &Agg{
		Input: &Scan{Table: "items"},
		Aggs: []AggSpec{
			{Func: AggCount, Name: "cnt"},
			{Func: AggSum, Arg: expr.Col("price"), Name: "total"},
			{Func: AggAvg, Arg: expr.Col("qty"), Name: "avg_qty"},
			{Func: AggMin, Arg: expr.Col("qty"), Name: "min_qty"},
			{Func: AggMax, Arg: expr.Col("qty"), Name: "max_qty"},
			{Func: AggCountDistinct, Arg: expr.Col("mode"), Name: "modes"},
		},
	}
	rel, _ := d.exec(t, agg, nil)
	if rel.NumRows() != 1 {
		t.Fatalf("global agg rows %d", rel.NumRows())
	}
	if rel.ColByName("cnt").Ints[0] != 3000 {
		t.Fatal("count wrong")
	}
	var sum float64
	var minQ, maxQ int64 = 1 << 62, -1
	modes := map[string]bool{}
	var qtySum float64
	for i := 0; i < d.ib.N; i++ {
		sum += d.ib.Cols[3].Floats[i]
		q := d.ib.Cols[2].Ints[i]
		qtySum += float64(q)
		if q < minQ {
			minQ = q
		}
		if q > maxQ {
			maxQ = q
		}
		modes[d.ib.Cols[4].Strings[i]] = true
	}
	if got := rel.ColByName("total").Floats[0]; got < sum-0.01 || got > sum+0.01 {
		t.Fatalf("sum %f want %f", got, sum)
	}
	if got := rel.ColByName("avg_qty").Floats[0]; got < qtySum/3000-1e-9 || got > qtySum/3000+1e-9 {
		t.Fatal("avg wrong")
	}
	if rel.ColByName("min_qty").Ints[0] != minQ || rel.ColByName("max_qty").Ints[0] != maxQ {
		t.Fatal("min/max wrong")
	}
	if rel.ColByName("modes").Ints[0] != int64(len(modes)) {
		t.Fatal("count distinct wrong")
	}
}

func TestAggGroupBy(t *testing.T) {
	d := newTestDB(t, 5000, 10, 2, 17)
	agg := &Agg{
		Input:   &Scan{Table: "items"},
		GroupBy: []string{"mode"},
		Aggs:    []AggSpec{{Func: AggCount, Name: "cnt"}, {Func: AggSum, Arg: expr.Col("qty"), Name: "q"}},
	}
	rel, _ := d.exec(t, agg, nil)
	ref := map[string][2]float64{}
	for i := 0; i < d.ib.N; i++ {
		m := d.ib.Cols[4].Strings[i]
		v := ref[m]
		v[0]++
		v[1] += float64(d.ib.Cols[2].Ints[i])
		ref[m] = v
	}
	if rel.NumRows() != len(ref) {
		t.Fatalf("groups %d want %d", rel.NumRows(), len(ref))
	}
	modeCol := rel.ColByName("mode")
	cntCol := rel.ColByName("cnt")
	qCol := rel.ColByName("q")
	for row := 0; row < rel.NumRows(); row++ {
		m := modeCol.Dict.Value(modeCol.Ints[row])
		want := ref[m]
		if float64(cntCol.Ints[row]) != want[0] || qCol.Floats[row] != want[1] {
			t.Fatalf("group %s: got (%d, %f) want %v", m, cntCol.Ints[row], qCol.Floats[row], want)
		}
	}
}

func TestAggGroupByMultiKey(t *testing.T) {
	d := newTestDB(t, 4000, 10, 2, 18)
	agg := &Agg{
		Input:   &Scan{Table: "items"},
		GroupBy: []string{"mode", "qty"},
		Aggs:    []AggSpec{{Func: AggCount, Name: "cnt"}},
	}
	rel, _ := d.exec(t, agg, nil)
	ref := map[string]int64{}
	for i := 0; i < d.ib.N; i++ {
		k := d.ib.Cols[4].Strings[i] + "|" + string(rune(d.ib.Cols[2].Ints[i]))
		ref[k]++
	}
	if rel.NumRows() != len(ref) {
		t.Fatalf("groups %d want %d", rel.NumRows(), len(ref))
	}
	total := int64(0)
	cnt := rel.ColByName("cnt")
	for row := 0; row < rel.NumRows(); row++ {
		total += cnt.Ints[row]
	}
	if total != 4000 {
		t.Fatalf("counts sum to %d", total)
	}
}

func TestAggErrors(t *testing.T) {
	d := newTestDB(t, 100, 10, 1, 19)
	bad := &Agg{Input: &Scan{Table: "items"}, GroupBy: []string{"nope"},
		Aggs: []AggSpec{{Func: AggCount, Name: "c"}}}
	if _, err := bad.Execute(&ExecCtx{Catalog: d.cat, Snapshot: d.cat.Snapshot()}); err == nil {
		t.Fatal("bad group-by accepted")
	}
	bad2 := &Agg{Input: &Scan{Table: "items"},
		Aggs: []AggSpec{{Func: AggSum, Arg: expr.Col("nope"), Name: "c"}}}
	if _, err := bad2.Execute(&ExecCtx{Catalog: d.cat, Snapshot: d.cat.Snapshot()}); err == nil {
		t.Fatal("bad agg arg accepted")
	}
}

// --- project / filter / sort / limit / union ---

func TestProjectFilterSortLimit(t *testing.T) {
	d := newTestDB(t, 2000, 10, 2, 20)
	plan := &Limit{
		N: 10,
		Input: &Sort{
			Keys: []SortKey{{Col: "revenue", Desc: true}},
			Input: &Project{
				Exprs: []NamedScalar{
					{Expr: expr.Col("id"), Name: "id"},
					{Expr: expr.Arith(expr.Col("price"), expr.Mul, expr.Col("qty")), Name: "revenue"},
				},
				Input: &Filter{
					Pred:  expr.Cmp("qty", expr.Ge, expr.Int(10)),
					Input: &Scan{Table: "items"},
				},
			},
		},
	}
	rel, _ := d.exec(t, plan, nil)
	if rel.NumRows() != 10 {
		t.Fatalf("limit gave %d rows", rel.NumRows())
	}
	rev := rel.ColByName("revenue")
	for i := 1; i < rel.NumRows(); i++ {
		if rev.Floats[i] > rev.Floats[i-1] {
			t.Fatal("not sorted desc")
		}
	}
	// Reference top value.
	best := 0.0
	for i := 0; i < d.ib.N; i++ {
		if d.ib.Cols[2].Ints[i] >= 10 {
			r := d.ib.Cols[3].Floats[i] * float64(d.ib.Cols[2].Ints[i])
			if r > best {
				best = r
			}
		}
	}
	if rev.Floats[0] != best {
		t.Fatalf("top revenue %f want %f", rev.Floats[0], best)
	}
}

func TestSortByStringAndMultiKey(t *testing.T) {
	d := newTestDB(t, 500, 10, 1, 21)
	plan := &Sort{
		Keys:  []SortKey{{Col: "mode"}, {Col: "qty", Desc: true}},
		Input: &Scan{Table: "items"},
	}
	rel, _ := d.exec(t, plan, nil)
	mode := rel.ColByName("mode")
	qty := rel.ColByName("qty")
	for i := 1; i < rel.NumRows(); i++ {
		a := mode.Dict.Value(mode.Ints[i-1])
		b := mode.Dict.Value(mode.Ints[i])
		if a > b {
			t.Fatal("mode not ascending")
		}
		if a == b && qty.Ints[i] > qty.Ints[i-1] {
			t.Fatal("qty not descending within mode")
		}
	}
}

func TestUnion(t *testing.T) {
	d := newTestDB(t, 1000, 10, 1, 22)
	lo := &Scan{Table: "items", Filter: expr.Cmp("qty", expr.Lt, expr.Int(10)), Project: []string{"id", "mode"}}
	hi := &Scan{Table: "items", Filter: expr.Cmp("qty", expr.Gt, expr.Int(40)), Project: []string{"id", "mode"}}
	u := &Union{Inputs: []Node{lo, hi}}
	rel, _ := d.exec(t, u, nil)
	want := d.refItemIDs(func(r int) bool {
		q := d.ib.Cols[2].Ints[r]
		return q < 10 || q > 40
	})
	if !sameIDs(sortedIDs(t, rel), want) {
		t.Fatal("union mismatch")
	}
	// Empty union errors.
	if _, err := (&Union{}).Execute(&ExecCtx{Catalog: d.cat}); err == nil {
		t.Fatal("empty union accepted")
	}
}

func TestRelationFormat(t *testing.T) {
	d := newTestDB(t, 10, 10, 1, 23)
	rel, _ := d.exec(t, &Scan{Table: "items"}, nil)
	out := rel.Format(3)
	if len(out) == 0 {
		t.Fatal("empty format")
	}
	if rel.StringValue(0, 4) == "" {
		t.Fatal("string value empty")
	}
	names := rel.ColumnNames()
	if len(names) != 6 || names[0] != "id" {
		t.Fatalf("names %v", names)
	}
}

// Property: under any random mix of appends and deletes, a cached scan
// equals a cold scan — the paper's central no-false-negatives invariant.
func TestCachedScanEqualsColdScanUnderDML(t *testing.T) {
	for _, kind := range []core.EntryKind{core.RangeIndex, core.BitmapIndex} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			d := newTestDB(t, 6000, 10, 3, 24)
			cache := core.NewCache(core.Config{Kind: kind, MaxRanges: 16, RowsPerBlock: 500})
			r := rand.New(rand.NewSource(77))
			preds := []expr.Pred{
				qtyPred(45),
				expr.Between("day", expr.Int(9100), expr.Int(9150)),
				expr.And(expr.Cmp("mode", expr.Eq, expr.Str("AIR")), qtyPred(20)),
				expr.Or(expr.Cmp("qty", expr.Lt, expr.Int(3)), expr.Cmp("qty", expr.Gt, expr.Int(48))),
			}
			nextID := int64(6000)
			for step := 0; step < 25; step++ {
				switch r.Intn(3) {
				case 0: // append
					nb := itemsBatch(500+r.Intn(500), int64(1000+step), 10)
					for i := 0; i < nb.N; i++ {
						nb.Cols[0].Ints[i] = nextID
						nextID++
					}
					if err := d.cat.Commit(func(xid uint64) error { return d.items.Append(nb, xid) }); err != nil {
						t.Fatal(err)
					}
				case 1: // delete a few random rows of a random slice
					slice := r.Intn(d.items.NumSlices())
					n := d.items.Slice(slice).NumRows()
					if n > 0 {
						var rows []int
						for k := 0; k < 20; k++ {
							rows = append(rows, r.Intn(n))
						}
						deleteRows(d.cat, d.items, slice, rows)
					}
				case 2: // occasionally vacuum
					if r.Intn(4) == 0 {
						d.items.Vacuum(d.cat.Snapshot())
					}
				}
				p := preds[r.Intn(len(preds))]
				scan := &Scan{Table: "items", Filter: p, Project: []string{"id"}}
				warm, _ := d.exec(t, scan, cache)
				cold, _ := d.exec(t, scan, nil)
				if !sameIDs(sortedIDs(t, warm), sortedIDs(t, cold)) {
					t.Fatalf("step %d (%s): cached scan diverged (%d vs %d rows)",
						step, p.Key(), warm.NumRows(), cold.NumRows())
				}
			}
		})
	}
}

func TestCacheDescriptors(t *testing.T) {
	d := newTestDB(t, 100, 10, 1, 30)
	ec := &ExecCtx{Catalog: d.cat, Snapshot: d.cat.Snapshot()}

	scan := &Scan{Table: "dims", Filter: expr.Cmp("d_rank", expr.Lt, expr.Int(5))}
	desc, deps, ok := scan.CacheDescriptor(ec)
	if !ok || len(deps) != 1 || deps[0].Table != d.dims {
		t.Fatalf("scan descriptor: ok=%v deps=%v", ok, deps)
	}
	if desc == "" {
		t.Fatal("empty scan descriptor")
	}
	// Unknown table -> not describable.
	if _, _, ok := (&Scan{Table: "missing"}).CacheDescriptor(ec); ok {
		t.Fatal("missing table described")
	}
	// Join composes children; filter wraps; projection passes through.
	j := &Join{Left: &Scan{Table: "items"}, Right: scan,
		LeftKeys: []string{"dim_id"}, RightKeys: []string{"d_id"}, Type: InnerJoin}
	jd, jdeps, ok := j.CacheDescriptor(ec)
	if !ok || len(jdeps) != 2 {
		t.Fatalf("join descriptor: ok=%v deps=%d", ok, len(jdeps))
	}
	fd, _, ok := (&Filter{Input: j, Pred: expr.Cmp("qty", expr.Gt, expr.Int(1))}).CacheDescriptor(ec)
	if !ok || fd == jd {
		t.Fatal("filter descriptor")
	}
	pd, _, ok := (&Project{Input: j}).CacheDescriptor(ec)
	if !ok || pd != jd {
		t.Fatal("project must pass its input's descriptor through")
	}
	// Aggregations and limits are not describable.
	if _, _, ok := (&Agg{Input: j}).CacheDescriptor(ec); ok {
		t.Fatal("agg described")
	}
	if _, _, ok := (&Limit{Input: j, N: 1}).CacheDescriptor(ec); ok {
		t.Fatal("limit described")
	}
	if _, _, ok := (&Union{Inputs: []Node{j}}).CacheDescriptor(ec); ok {
		t.Fatal("union described")
	}
	// Descriptor changes when the build side's version moves.
	d.dims.BumpVersion()
	_, deps2, _ := scan.CacheDescriptor(ec)
	if deps2[0].Version == deps[0].Version {
		t.Fatal("descriptor version did not advance")
	}
}

func TestExplainCoversAllNodes(t *testing.T) {
	d := newTestDB(t, 100, 10, 1, 31)
	rel, _ := d.exec(t, &Scan{Table: "dims"}, nil)
	plan := &Limit{N: 1, Input: &Sort{Keys: []SortKey{{Col: "id", Desc: true}},
		Input: &Project{Exprs: []NamedScalar{{Expr: expr.Col("id"), Name: "id"}},
			Input: &Filter{Pred: expr.Cmp("qty", expr.Gt, expr.Int(0)),
				Input: &Union{Inputs: []Node{
					&Join{Left: &Scan{Table: "items", Alias: "i", Project: []string{"id", "qty"}},
						Right: &Agg{Input: &Materialized{Rel: rel}, GroupBy: []string{"d_id"},
							Aggs: []AggSpec{{Func: AggCount, Name: "n"}}},
						LeftKeys: []string{"i.id"}, RightKeys: []string{"d_id"}, Type: SemiJoin, PushSemiJoin: true},
				}}}}}}
	out := Explain(plan)
	for _, want := range []string{"Limit 1", "Sort [id desc]", "Project [id]", "Filter", "Union", "Join semi", "Scan items as i", "Aggregate", "Materialized"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
}

// Sort-key tables interact with the cache exactly like unsorted ones:
// appends land in the insert buffer (watermark extend), vacuum re-sorts and
// invalidates.
func TestCacheWithSortKeyTable(t *testing.T) {
	cat := storage.NewCatalog()
	tbl, err := cat.CreateTable("s", itemsSchema(), 2, "day")
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Commit(func(xid uint64) error { return tbl.SortedLoad(itemsBatch(8000, 40, 10), xid) }); err != nil {
		t.Fatal(err)
	}
	d := &testDB{cat: cat, items: tbl}
	cache := core.NewCache(core.DefaultConfig())
	p := expr.Between("day", expr.Int(9100), expr.Int(9120))
	scan := &Scan{Table: "s", Filter: p, Project: []string{"id"}}

	cold, coldStats := d.exec(t, scan, nil)
	warm1, _ := d.exec(t, scan, cache)
	if !sameIDs(sortedIDs(t, warm1), sortedIDs(t, cold)) {
		t.Fatal("sorted-table cached scan mismatch")
	}
	// Sorted layout: day is clustered, so even the bitmap entry (and zone
	// maps) restrict the scan sharply.
	warm2, s2 := d.exec(t, scan, cache)
	if !sameIDs(sortedIDs(t, warm2), sortedIDs(t, cold)) {
		t.Fatal("second cached run mismatch")
	}
	if s2.RowsScanned.Load() > coldStats.RowsScanned.Load() {
		t.Fatal("cache made the sorted scan worse")
	}
	// Insert-buffer appends keep the entry alive; vacuum re-sorts and
	// invalidates.
	if err := cat.Commit(func(xid uint64) error { return tbl.Append(itemsBatch(1000, 41, 10), xid) }); err != nil {
		t.Fatal(err)
	}
	warm3, s3 := d.exec(t, scan, cache)
	if s3.CacheHits.Load() != 1 {
		t.Fatal("append invalidated entry on sorted table")
	}
	cold3, _ := d.exec(t, scan, nil)
	if !sameIDs(sortedIDs(t, warm3), sortedIDs(t, cold3)) {
		t.Fatal("post-append mismatch")
	}
	tbl.Vacuum(cat.Snapshot())
	warm4, s4 := d.exec(t, scan, cache)
	if s4.CacheHits.Load() != 0 {
		t.Fatal("vacuum did not invalidate")
	}
	cold4, _ := d.exec(t, scan, nil)
	if !sameIDs(sortedIDs(t, warm4), sortedIDs(t, cold4)) {
		t.Fatal("post-vacuum mismatch")
	}
}

// String join keys exercise the probe-to-build dictionary code translation
// (the two tables have their own dictionaries) and the FNV-hashed bloom
// path. Every output row must carry its own city's region: a join that
// compared raw codes across the two dictionaries would keep the row count
// and pair rows with the wrong dimension row.
func TestStringKeyJoin(t *testing.T) {
	cat := storage.NewCatalog()
	facts, _ := cat.CreateTable("f", storage.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "city", Type: storage.String},
	}, 2)
	dims, _ := cat.CreateTable("g", storage.Schema{
		{Name: "g_city", Type: storage.String},
		{Name: "g_region", Type: storage.String},
	}, 1)
	cities := []string{"berlin", "munich", "hamburg", "paris", "lyon", "rome"}
	fb := storage.NewBatch(facts.Schema())
	r := rand.New(rand.NewSource(60))
	for i := 0; i < 5000; i++ {
		fb.Cols[0].Ints = append(fb.Cols[0].Ints, int64(i))
		fb.Cols[1].Strings = append(fb.Cols[1].Strings, cities[r.Intn(len(cities))])
	}
	fb.N = 5000
	if err := cat.Commit(func(xid uint64) error { return facts.Append(fb, xid) }); err != nil {
		t.Fatal(err)
	}
	gb := storage.NewBatch(dims.Schema())
	regions := map[string]string{"berlin": "de", "munich": "de", "hamburg": "de", "paris": "fr", "lyon": "fr", "rome": "it"}
	// Dimension rows in reverse order, so the two dictionaries' codes differ.
	for i := len(cities) - 1; i >= 0; i-- {
		gb.Cols[0].Strings = append(gb.Cols[0].Strings, cities[i])
		gb.Cols[1].Strings = append(gb.Cols[1].Strings, regions[cities[i]])
	}
	gb.N = len(cities)
	if err := cat.Commit(func(xid uint64) error { return dims.Append(gb, xid) }); err != nil {
		t.Fatal(err)
	}
	for _, push := range []bool{true, false} {
		t.Run(fmt.Sprintf("pushdown=%v", push), func(t *testing.T) {
			j := &Join{
				Left:         &Scan{Table: "f"},
				Right:        &Scan{Table: "g", Filter: expr.Cmp("g_region", expr.Ne, expr.Str("it"))},
				LeftKeys:     []string{"city"},
				RightKeys:    []string{"g_city"},
				Type:         InnerJoin,
				PushSemiJoin: push,
			}
			want := 0
			for i := 0; i < fb.N; i++ {
				if regions[fb.Cols[1].Strings[i]] != "it" {
					want++
				}
			}
			cache := core.NewCache(core.DefaultConfig())
			// The second run reads the semi-join cache entry when pushed down.
			for run := 0; run < 2; run++ {
				ec := &ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}, Cache: cache}
				rel, err := j.Execute(ec)
				if err != nil {
					t.Fatal(err)
				}
				if rel.NumRows() != want {
					t.Fatalf("run %d: rows %d want %d", run, rel.NumRows(), want)
				}
				city, gcity, region := rel.ColByName("city"), rel.ColByName("g_city"), rel.ColByName("g_region")
				if gcity == nil || region == nil {
					t.Fatal("build columns missing")
				}
				for i := 0; i < rel.NumRows(); i++ {
					c := city.Dict.Value(city.Ints[i])
					gc, reg := gcity.Dict.Value(gcity.Ints[i]), region.Dict.Value(region.Ints[i])
					if gc != c || reg != regions[c] {
						t.Fatalf("run %d row %d: city %s joined (%s, %s), want (%s, %s)", run, i, c, gc, reg, c, regions[c])
					}
				}
			}
		})
	}
}

// Multi-column (composite) join keys: two int words, then an int and a
// dictionary-translated string word.
func TestMultiKeyJoin(t *testing.T) {
	cat := storage.NewCatalog()
	a, _ := cat.CreateTable("a", storage.Schema{
		{Name: "x", Type: storage.Int64}, {Name: "y", Type: storage.Int64}, {Name: "v", Type: storage.Float64},
	}, 1)
	bt, _ := cat.CreateTable("b", storage.Schema{
		{Name: "bx", Type: storage.Int64}, {Name: "by", Type: storage.Int64}, {Name: "w", Type: storage.Float64},
	}, 1)
	ab := storage.NewBatch(a.Schema())
	bb := storage.NewBatch(bt.Schema())
	for i := 0; i < 1000; i++ {
		ab.Cols[0].Ints = append(ab.Cols[0].Ints, int64(i%10))
		ab.Cols[1].Ints = append(ab.Cols[1].Ints, int64(i%7))
		ab.Cols[2].Floats = append(ab.Cols[2].Floats, float64(i))
	}
	ab.N = 1000
	for x := 0; x < 10; x++ {
		for y := 0; y < 7; y++ {
			bb.Cols[0].Ints = append(bb.Cols[0].Ints, int64(x))
			bb.Cols[1].Ints = append(bb.Cols[1].Ints, int64(y))
			bb.Cols[2].Floats = append(bb.Cols[2].Floats, float64(x*100+y))
		}
	}
	bb.N = 70
	if err := cat.Commit(func(xid uint64) error { return a.Append(ab, xid) }); err != nil {
		t.Fatal(err)
	}
	if err := cat.Commit(func(xid uint64) error { return bt.Append(bb, xid) }); err != nil {
		t.Fatal(err)
	}
	j := &Join{
		Left: &Scan{Table: "a"}, Right: &Scan{Table: "b"},
		LeftKeys: []string{"x", "y"}, RightKeys: []string{"bx", "by"}, Type: InnerJoin,
	}
	rel, err := j.Execute(&ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}})
	if err != nil {
		t.Fatal(err)
	}
	// Every (x,y) pair exists in b exactly once: 1:1 match.
	if rel.NumRows() != 1000 {
		t.Fatalf("rows %d want 1000", rel.NumRows())
	}
	w := rel.ColByName("w")
	x := rel.ColByName("x")
	y := rel.ColByName("y")
	for i := 0; i < rel.NumRows(); i++ {
		if w.Floats[i] != float64(x.Ints[i]*100+y.Ints[i]) {
			t.Fatal("composite key matched wrong row")
		}
	}

	// An (int, string) key: the string position translates between the two
	// tables' dictionaries, whose codes run in opposite orders.
	names := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6"}
	c, _ := cat.CreateTable("c", storage.Schema{{Name: "cx", Type: storage.Int64}, {Name: "cn", Type: storage.String}}, 1)
	d, _ := cat.CreateTable("d", storage.Schema{{Name: "dx", Type: storage.Int64}, {Name: "dn", Type: storage.String}, {Name: "dw", Type: storage.Float64}}, 1)
	cb, db := storage.NewBatch(c.Schema()), storage.NewBatch(d.Schema())
	for i := 0; i < 1000; i++ {
		cb.Cols[0].Ints = append(cb.Cols[0].Ints, int64(i%10))
		cb.Cols[1].Strings = append(cb.Cols[1].Strings, names[i%7])
	}
	cb.N = 1000
	for x := 0; x < 10; x++ {
		for y := 6; y >= 0; y-- {
			if (x+y)%3 == 0 {
				continue // about a third of the pairs have no build row
			}
			db.Cols[0].Ints = append(db.Cols[0].Ints, int64(x))
			db.Cols[1].Strings = append(db.Cols[1].Strings, names[y])
			db.Cols[2].Floats = append(db.Cols[2].Floats, float64(x*100+y))
			db.N++
		}
	}
	if err := cat.Commit(func(xid uint64) error { return c.Append(cb, xid) }); err != nil {
		t.Fatal(err)
	}
	if err := cat.Commit(func(xid uint64) error { return d.Append(db, xid) }); err != nil {
		t.Fatal(err)
	}
	j = &Join{
		Left: &Scan{Table: "c"}, Right: &Scan{Table: "d"},
		LeftKeys: []string{"cx", "cn"}, RightKeys: []string{"dx", "dn"}, Type: InnerJoin,
	}
	rel, err = j.Execute(&ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 1000; i++ {
		if (i%10+i%7)%3 != 0 {
			want++
		}
	}
	if rel.NumRows() != want {
		t.Fatalf("(int, string) key: rows %d want %d", rel.NumRows(), want)
	}
	cx, cn, dw := rel.ColByName("cx"), rel.ColByName("cn"), rel.ColByName("dw")
	for i := 0; i < rel.NumRows(); i++ {
		var y int
		fmt.Sscanf(cn.Dict.Value(cn.Ints[i]), "n%d", &y)
		if dw.Floats[i] != float64(cx.Ints[i]*100+int64(y)) {
			t.Fatalf("(int, string) key: row %d (%d, n%d) matched dw %v", i, cx.Ints[i], y, dw.Floats[i])
		}
	}
}

func TestMaterializedAndEnumStrings(t *testing.T) {
	d := newTestDB(t, 10, 10, 1, 61)
	rel, _ := d.exec(t, &Scan{Table: "dims"}, nil)
	m := &Materialized{Rel: rel}
	got, err := m.Execute(&ExecCtx{})
	if err != nil || got != rel {
		t.Fatal("materialized execute")
	}
	if _, _, ok := m.CacheDescriptor(nil); ok {
		t.Fatal("materialized described")
	}
	for jt, want := range map[JoinType]string{InnerJoin: "inner", LeftOuterJoin: "left", SemiJoin: "semi", AntiJoin: "anti"} {
		if jt.String() != want {
			t.Fatal("join type name")
		}
	}
	for f, want := range map[AggFunc]string{AggCount: "count", AggCountDistinct: "count_distinct", AggSum: "sum", AggAvg: "avg", AggMin: "min", AggMax: "max"} {
		if f.String() != want {
			t.Fatal("agg func name")
		}
	}
	if rel.MemBytes() <= 0 {
		t.Fatal("relation mem")
	}
	if rel.Dict(1) == nil { // d_cat string column
		t.Fatal("relation dict")
	}
}

func TestProbeKeyNameAndBaseProbeScan(t *testing.T) {
	s := &Scan{Table: "items", Alias: "i"}
	if probeKeyName(s, "i.dim_id") != "dim_id" || probeKeyName(s, "dim_id") != "dim_id" {
		t.Fatal("probeKeyName")
	}
	// Descent through filters and inner joins; stops at outer joins.
	inner := &Join{Left: s, Type: InnerJoin}
	if baseProbeScan(&Filter{Input: inner}) != s {
		t.Fatal("descent failed")
	}
	outer := &Join{Left: s, Type: LeftOuterJoin}
	if baseProbeScan(outer) != nil {
		t.Fatal("descended through outer join")
	}
	if baseProbeScan(&Agg{}) != nil {
		t.Fatal("descended through agg")
	}
}

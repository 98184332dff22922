package psort

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/storage"
)

func setup(t *testing.T, rows int) (*storage.Catalog, *storage.Batch) {
	t.Helper()
	cat := storage.NewCatalog()
	schema := storage.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "x", Type: storage.Int64},
		{Name: "y", Type: storage.Float64},
		{Name: "s", Type: storage.String},
	}
	tbl, err := cat.CreateTable("t", schema, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	b := storage.NewBatch(schema)
	for i := 0; i < rows; i++ {
		b.Cols[0].Ints = append(b.Cols[0].Ints, int64(i))
		b.Cols[1].Ints = append(b.Cols[1].Ints, int64(r.Intn(100)))
		b.Cols[2].Floats = append(b.Cols[2].Floats, float64(r.Intn(1000)))
		b.Cols[3].Strings = append(b.Cols[3].Strings, []string{"a", "b", "c"}[r.Intn(3)])
	}
	b.N = rows
	if err := cat.Commit(func(xid uint64) error { return tbl.Append(b, xid) }); err != nil {
		t.Fatal(err)
	}
	return cat, b
}

func scanIDs(t *testing.T, cat *storage.Catalog, pred expr.Pred) ([]int64, *storage.ScanStats) {
	t.Helper()
	stats := &storage.ScanStats{}
	ec := &engine.ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), Stats: stats}
	rel, err := (&engine.Scan{Table: "t", Filter: pred, Project: []string{"id"}}).Execute(ec)
	if err != nil {
		t.Fatal(err)
	}
	ids := append([]int64(nil), rel.ColByName("id").Ints...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, stats
}

func TestReorganizePreservesRows(t *testing.T) {
	cat, b := setup(t, 20000)
	pred := expr.Cmp("x", expr.Lt, expr.Int(10))
	before, coldStats := scanIDs(t, cat, pred)

	cost, err := Reorganize(cat, "t", []expr.Pred{pred})
	if err != nil {
		t.Fatal(err)
	}
	if cost.RowsRead != 20000 || cost.RowsWritten != 20000 {
		t.Fatalf("cost %+v", cost)
	}
	after, sortedStats := scanIDs(t, cat, pred)
	if len(before) != len(after) {
		t.Fatalf("row count changed: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("rows changed")
		}
	}
	// The reorganized layout must scan fewer rows: qualifying rows (~10%)
	// cluster at the front, zone maps skip the rest.
	if sortedStats.RowsScanned.Load() >= coldStats.RowsScanned.Load()/2 {
		t.Fatalf("no scan reduction: %d vs %d", sortedStats.RowsScanned.Load(), coldStats.RowsScanned.Load())
	}
	_ = b
}

func TestReorganizeMultiplePredicates(t *testing.T) {
	cat, b := setup(t, 10000)
	p1 := expr.Cmp("x", expr.Lt, expr.Int(20))
	p2 := expr.Cmp("y", expr.Gt, expr.Float(500))
	if _, err := Reorganize(cat, "t", []expr.Pred{p1, p2}); err != nil {
		t.Fatal(err)
	}
	// Both predicates' results must be intact.
	for _, tc := range []struct {
		pred expr.Pred
		ref  func(i int) bool
	}{
		{p1, func(i int) bool { return b.Cols[1].Ints[i] < 20 }},
		{p2, func(i int) bool { return b.Cols[2].Floats[i] > 500 }},
		{expr.And(p1, p2), func(i int) bool { return b.Cols[1].Ints[i] < 20 && b.Cols[2].Floats[i] > 500 }},
	} {
		got, _ := scanIDs(t, cat, tc.pred)
		var want []int64
		for i := 0; i < b.N; i++ {
			if tc.ref(i) {
				want = append(want, b.Cols[0].Ints[i])
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("pred %s: %d vs %d rows", tc.pred.Key(), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatal("mismatch")
			}
		}
	}
}

func TestReorganizeDropsDeletedRows(t *testing.T) {
	cat, _ := setup(t, 5000)
	tbl, _ := cat.Table("t")
	_ = cat.Commit(func(xid uint64) error { tbl.DeleteRows([][]int{{0, 1, 2}}, xid); return nil }) // apply cannot fail
	if _, err := Reorganize(cat, "t", []expr.Pred{expr.Cmp("x", expr.Lt, expr.Int(50))}); err != nil {
		t.Fatal(err)
	}
	nt, _ := cat.Table("t")
	if nt.NumRows() != 4997 {
		t.Fatalf("rows %d want 4997", nt.NumRows())
	}
}

func TestReorganizeUnknownTable(t *testing.T) {
	cat := storage.NewCatalog()
	if _, err := Reorganize(cat, "nope", nil); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestReorganizeBadPredicate(t *testing.T) {
	cat, _ := setup(t, 100)
	if _, err := Reorganize(cat, "t", []expr.Pred{expr.Cmp("nope", expr.Eq, expr.Int(1))}); err == nil {
		t.Fatal("bad predicate accepted")
	}
}

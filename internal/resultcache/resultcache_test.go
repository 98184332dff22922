package resultcache

import (
	"fmt"
	"testing"

	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/storage"
)

func mkTable(t *testing.T, name string, rows int) *storage.Table {
	t.Helper()
	tbl, err := storage.NewTable(name, storage.Schema{{Name: "v", Type: storage.Int64}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := storage.NewBatch(tbl.Schema())
	for i := 0; i < rows; i++ {
		b.Cols[0].Ints = append(b.Cols[0].Ints, int64(i))
	}
	b.N = rows
	if err := tbl.Append(b, 1); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func mkResult(t *testing.T, n int) *engine.Relation {
	t.Helper()
	vals := make([]int64, n)
	rel, err := engine.NewRelation([]engine.RelCol{{Name: "x", Type: storage.Int64, Ints: vals}})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestGetPut(t *testing.T) {
	c := New(0)
	tbl := mkTable(t, "t", 10)
	if _, ok := c.Get("q1"); ok {
		t.Fatal("phantom hit")
	}
	res := mkResult(t, 1)
	c.Put("q1", res, []*storage.Table{tbl})
	got, ok := c.Get("q1")
	if !ok || got != res {
		t.Fatal("miss after put")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.MemBytes <= 0 {
		t.Fatal("mem accounting")
	}
}

func TestInvalidationOnAnyDML(t *testing.T) {
	c := New(0)
	t1 := mkTable(t, "t1", 10)
	t2 := mkTable(t, "t2", 10)
	c.Put("join", mkResult(t, 5), []*storage.Table{t1, t2})
	// DML on the second table invalidates too.
	t2.DeleteRows([][]int{{0}}, 2)
	if _, ok := c.Get("join"); ok {
		t.Fatal("stale result served")
	}
	if c.Stats().Invalidations != 1 {
		t.Fatal("invalidation not counted")
	}
	// An insert also invalidates (the result cache is data-dependent —
	// the key weakness predicate caching addresses).
	c.Put("q", mkResult(t, 1), []*storage.Table{t1})
	b := storage.NewBatch(t1.Schema())
	b.Cols[0].Ints = []int64{99}
	b.N = 1
	if err := t1.Append(b, 3); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("q"); ok {
		t.Fatal("result survived insert")
	}
}

func TestEvictionBudget(t *testing.T) {
	c := New(5000)
	tbl := mkTable(t, "t", 10)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("q%d", i), mkResult(t, 50), []*storage.Table{tbl})
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions")
	}
	if st.MemBytes > 5000 {
		t.Fatalf("over budget: %d", st.MemBytes)
	}
	if _, ok := c.Get("q99"); !ok {
		t.Fatal("most recent evicted")
	}
}

func TestReplaceAndClear(t *testing.T) {
	c := New(0)
	tbl := mkTable(t, "t", 10)
	c.Put("q", mkResult(t, 1), []*storage.Table{tbl})
	r2 := mkResult(t, 2)
	c.Put("q", r2, []*storage.Table{tbl})
	got, _ := c.Get("q")
	if got != r2 {
		t.Fatal("replace failed")
	}
	if c.Stats().Entries != 1 {
		t.Fatal("duplicate entry")
	}
	if c.EntryMemBytes("q") <= 0 || c.EntryMemBytes("nope") != 0 {
		t.Fatal("entry mem")
	}
	c.Clear()
	if c.Stats().Entries != 0 {
		t.Fatal("clear failed")
	}
}

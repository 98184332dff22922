package core

import (
	"fmt"
	"testing"

	"github.com/predcache/predcache/internal/storage"
)

// assertMemMatchesEntries is the satellite invariant: the cache-wide mem
// counter behind Stats().MemBytes must equal the sum of per-entry MemBytes
// reported by Entries() at every observation point. (The pcdebug build
// additionally asserts this inside every mutating cache operation via
// assertMemLocked.)
func assertMemMatchesEntries(t *testing.T, c *Cache, ctx string) {
	t.Helper()
	sum := 0
	for _, e := range c.Entries() {
		sum += e.MemBytes
	}
	if got := c.Stats().MemBytes; got != sum {
		t.Fatalf("%s: Stats().MemBytes = %d, sum over Entries() = %d", ctx, got, sum)
	}
}

func TestCacheMemInvariantAcrossLifecycle(t *testing.T) {
	t1 := newTestTable(t, "t1", 2, 50000)
	t2 := newTestTable(t, "t2", 1, 50000)
	c := NewCache(Config{Kind: RangeIndex, MaxRanges: 256, MemBudget: 1 << 20})
	assertMemMatchesEntries(t, c, "empty")

	for i := 0; i < 8; i++ {
		rs := make([]storage.RowRange, 0, i+1)
		for j := 0; j <= i; j++ {
			rs = append(rs, storage.RowRange{Start: j * 100, End: j*100 + 10})
		}
		c.Insert(simpleKey("t1", fmt.Sprintf("p%d", i)), t1, t1.LayoutEpoch(), nil,
			[][]storage.RowRange{rs, {{Start: 0, End: 5}}}, []int{25000, 25000})
		c.Insert(simpleKey("t2", fmt.Sprintf("p%d", i)), t2, t2.LayoutEpoch(), nil,
			[][]storage.RowRange{rs}, []int{50000})
		assertMemMatchesEntries(t, c, fmt.Sprintf("insert %d", i))
	}

	// Extend grows one entry's ranges and must keep the counter in step.
	c.Extend(simpleKey("t1", "p3").String(), 0, []storage.RowRange{{Start: 25100, End: 25150}}, 30000)
	if c.Stats().Extends != 1 {
		t.Fatal("extend not applied")
	}
	assertMemMatchesEntries(t, c, "extend")

	// Re-insert replaces an entry with a differently sized payload.
	c.Insert(simpleKey("t2", "p0"), t2, t2.LayoutEpoch(), nil,
		[][]storage.RowRange{{{Start: 0, End: 1}}}, []int{50000})
	assertMemMatchesEntries(t, c, "reinsert")

	// Invalidation drops a whole table's entries.
	c.InvalidateTable("t1")
	assertMemMatchesEntries(t, c, "invalidate")
	if c.Stats().Entries != 8 {
		t.Fatalf("entries after invalidate = %d", c.Stats().Entries)
	}

	c.Clear()
	assertMemMatchesEntries(t, c, "clear")
	if c.Stats().MemBytes != 0 {
		t.Fatalf("mem after clear = %d", c.Stats().MemBytes)
	}
}

func TestCacheMemInvariantUnderEviction(t *testing.T) {
	tbl := newTestTable(t, "t", 1, 100000)
	c := NewCache(Config{Kind: RangeIndex, MaxRanges: 1024, MemBudget: 8000})
	for i := 0; i < 40; i++ {
		rs := make([]storage.RowRange, 0, 60)
		for j := 0; j < 60; j++ {
			rs = append(rs, storage.RowRange{Start: j * 20, End: j*20 + 5})
		}
		c.Insert(simpleKey("t", fmt.Sprintf("p%d", i)), tbl, tbl.LayoutEpoch(), nil,
			[][]storage.RowRange{rs}, []int{100000})
		assertMemMatchesEntries(t, c, fmt.Sprintf("insert %d under budget pressure", i))
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("budget never forced an eviction")
	}
}

func TestEntrySummaryIntrospectionFields(t *testing.T) {
	tbl := newTestTable(t, "t", 2, 10000)
	c := NewCache(Config{Kind: RangeIndex, MaxRanges: 16})
	key := simpleKey("t", "p")
	c.Insert(key, tbl, tbl.LayoutEpoch(), nil,
		[][]storage.RowRange{{{Start: 0, End: 10}, {Start: 50, End: 60}}, {{Start: 5, End: 9}}},
		[]int{5000, 5000})

	es := c.Entries()
	if len(es) != 1 {
		t.Fatalf("entries = %d", len(es))
	}
	e := es[0]
	if e.Hits != 0 || !e.LastHit.IsZero() {
		t.Fatalf("fresh entry already hit: %+v", e)
	}
	if e.CreatedAt.IsZero() {
		t.Fatal("CreatedAt not stamped")
	}
	if e.Slices != 2 || e.Ranges != 3 || e.Epoch != tbl.LayoutEpoch() {
		t.Fatalf("shape fields wrong: %+v", e)
	}

	for i := 0; i < 3; i++ {
		if _, ok := c.Best([]string{key.String()}); !ok {
			t.Fatal("miss")
		}
	}
	e = c.Entries()[0]
	if e.Hits != 3 {
		t.Fatalf("hits = %d, want 3", e.Hits)
	}
	if e.LastHit.Before(e.CreatedAt) {
		t.Fatalf("LastHit %v before CreatedAt %v", e.LastHit, e.CreatedAt)
	}
}

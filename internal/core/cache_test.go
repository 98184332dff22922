package core

import (
	"fmt"
	"testing"

	"github.com/predcache/predcache/internal/storage"
)

func newTestTable(t *testing.T, name string, slices, rows int) *storage.Table {
	t.Helper()
	schema := storage.Schema{{Name: "v", Type: storage.Int64}}
	tbl, err := storage.NewTable(name, schema, slices)
	if err != nil {
		t.Fatal(err)
	}
	b := storage.NewBatch(schema)
	for i := 0; i < rows; i++ {
		b.Cols[0].Ints = append(b.Cols[0].Ints, int64(i))
	}
	b.N = rows
	if err := tbl.Append(b, 1); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func simpleKey(table, pred string) Key {
	return Key{Table: table, Predicate: pred}
}

func TestKeyString(t *testing.T) {
	k := simpleKey("lineitem", "(= l_discount 0.1)")
	if k.String() != "<scan table=lineitem pred=(= l_discount 0.1)>" {
		t.Fatalf("key %q", k.String())
	}
	if k.HasSemiJoin() {
		t.Fatal("plain key claims semi-join")
	}
	kj := Key{
		Table:     "lineitem",
		Predicate: "(true)",
		SemiJoins: []SemiJoinKey{
			{JoinPred: "(= o_orderkey l_orderkey)", BuildKey: "<scan table=orders pred=(between o_orderdate 9131 9161)>"},
		},
	}
	if !kj.HasSemiJoin() {
		t.Fatal("semi-join key not detected")
	}
	// Semi-join order must not matter.
	a := Key{Table: "t", Predicate: "p", SemiJoins: []SemiJoinKey{{JoinPred: "j1", BuildKey: "b1"}, {JoinPred: "j2", BuildKey: "b2"}}}
	b := Key{Table: "t", Predicate: "p", SemiJoins: []SemiJoinKey{{JoinPred: "j2", BuildKey: "b2"}, {JoinPred: "j1", BuildKey: "b1"}}}
	if a.String() != b.String() {
		t.Fatal("semi-join key order-dependent")
	}
}

func TestCacheInsertLookupRange(t *testing.T) {
	tbl := newTestTable(t, "t", 2, 5000)
	c := NewCache(Config{Kind: RangeIndex, MaxRanges: 8})
	key := simpleKey("t", "(= v 1)")
	perSlice := [][]storage.RowRange{
		{{Start: 10, End: 20}, {Start: 100, End: 110}},
		{{Start: 0, End: 5}},
	}
	c.Insert(key, tbl, tbl.LayoutEpoch(), nil, perSlice, []int{3000, 2000})

	cand, ok := c.Best([]string{key.String()})
	if !ok {
		t.Fatal("miss after insert")
	}
	if cand.Kind != RangeIndex {
		t.Fatal("wrong kind")
	}
	if cand.NumSlices() != 2 || cand.Watermark(0) != 3000 || cand.Watermark(1) != 2000 {
		t.Fatalf("candidates %+v", cand)
	}
	if cand.AppendRanges(0, nil)[0] != (storage.RowRange{Start: 10, End: 20}) {
		t.Fatalf("ranges %+v", cand.AppendRanges(0, nil))
	}
	if cand.EstRows != 25 {
		t.Fatalf("est rows %d", cand.EstRows)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Inserts != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheInsertLookupBitmap(t *testing.T) {
	tbl := newTestTable(t, "t", 1, 5000)
	c := NewCache(Config{Kind: BitmapIndex, RowsPerBlock: 1000})
	key := simpleKey("t", "(= v 1)")
	// Qualifying rows in blocks 0 and 3.
	perSlice := [][]storage.RowRange{{{Start: 10, End: 20}, {Start: 3500, End: 3600}}}
	c.Insert(key, tbl, tbl.LayoutEpoch(), nil, perSlice, []int{5000})
	cand, ok := c.Best([]string{key.String()})
	if !ok {
		t.Fatal("miss")
	}
	want := []storage.RowRange{{Start: 0, End: 1000}, {Start: 3000, End: 4000}}
	got := cand.AppendRanges(0, nil)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("bitmap candidates %v", got)
	}
}

func TestCacheMiss(t *testing.T) {
	c := NewCache(DefaultConfig())
	if _, ok := c.Best([]string{"nope"}); ok {
		t.Fatal("phantom hit")
	}
	if c.Stats().Misses != 1 {
		t.Fatal("miss not counted")
	}
}

func TestCacheLayoutEpochInvalidation(t *testing.T) {
	tbl := newTestTable(t, "t", 1, 2000)
	c := NewCache(DefaultConfig())
	key := simpleKey("t", "p")
	c.Insert(key, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 0, End: 100}}}, []int{2000})
	if _, ok := c.Best([]string{key.String()}); !ok {
		t.Fatal("miss before vacuum")
	}
	tbl.Vacuum(100) // bumps layout epoch
	if _, ok := c.Best([]string{key.String()}); ok {
		t.Fatal("stale entry served after vacuum")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations %d", st.Invalidations)
	}
	if st.Entries != 0 {
		t.Fatal("stale entry not dropped")
	}
}

func TestCacheBuildDepInvalidation(t *testing.T) {
	fact := newTestTable(t, "fact", 1, 1000)
	dim := newTestTable(t, "dim", 1, 100)
	c := NewCache(DefaultConfig())
	key := Key{Table: "fact", Predicate: "(true)", SemiJoins: []SemiJoinKey{{JoinPred: "(= k k)", BuildKey: "<scan table=dim pred=(true)>"}}}
	deps := []BuildDep{{Table: dim, Version: dim.Version()}}
	c.Insert(key, fact, fact.LayoutEpoch(), deps, [][]storage.RowRange{{{Start: 0, End: 10}}}, []int{1000})
	if _, ok := c.Best([]string{key.String()}); !ok {
		t.Fatal("miss before dim change")
	}
	// DML on the build side invalidates the join entry.
	dim.DeleteRows([][]int{{1}}, 5)
	if _, ok := c.Best([]string{key.String()}); ok {
		t.Fatal("join entry survived build-side DML")
	}
	// DML on the probe side does NOT invalidate (inserts handled by
	// watermark, deletes by visibility).
	key2 := simpleKey("fact", "p2")
	c.Insert(key2, fact, fact.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 0, End: 10}}}, []int{1000})
	fact.DeleteRows([][]int{{1}}, 6)
	if _, ok := c.Best([]string{key2.String()}); !ok {
		t.Fatal("plain entry dropped by probe-side delete")
	}
}

func TestCacheBestPicksMostSelective(t *testing.T) {
	tbl := newTestTable(t, "t", 1, 10000)
	c := NewCache(Config{Kind: RangeIndex, MaxRanges: 64})
	plain := simpleKey("t", "p")
	join := Key{Table: "t", Predicate: "p", SemiJoins: []SemiJoinKey{{JoinPred: "j", BuildKey: "b"}}}
	c.Insert(plain, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 0, End: 5000}}}, []int{10000})
	c.Insert(join, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 0, End: 50}}}, []int{10000})
	cand, ok := c.Best([]string{plain.String(), join.String()})
	if !ok {
		t.Fatal("best missed")
	}
	if cand.Key != join.String() {
		t.Fatalf("best picked %s", cand.Key)
	}
	if cand.EstRows != 50 {
		t.Fatalf("est %d", cand.EstRows)
	}
	// Best with no matches counts one miss.
	before := c.Stats().Misses
	if _, ok := c.Best([]string{"a", "b"}); ok {
		t.Fatal("phantom best")
	}
	if c.Stats().Misses != before+1 {
		t.Fatal("miss not counted once")
	}
}

func TestCacheExtendRange(t *testing.T) {
	tbl := newTestTable(t, "t", 1, 2000)
	c := NewCache(Config{Kind: RangeIndex, MaxRanges: 16})
	key := simpleKey("t", "p")
	c.Insert(key, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 0, End: 10}}}, []int{2000})
	// 1000 new rows appended; rows 2100-2110 qualify.
	c.Extend(key.String(), 0, []storage.RowRange{{Start: 2100, End: 2110}}, 3000)
	cand, ok := c.Best([]string{key.String()})
	if !ok {
		t.Fatal("miss after extend")
	}
	if cand.Watermark(0) != 3000 {
		t.Fatalf("watermark %d", cand.Watermark(0))
	}
	rs := cand.AppendRanges(0, nil)
	if len(rs) != 2 || rs[1] != (storage.RowRange{Start: 2100, End: 2110}) {
		t.Fatalf("ranges %v", rs)
	}
	if c.Stats().Extends != 1 {
		t.Fatal("extend not counted")
	}
	// Extend with a lower watermark is a no-op.
	c.Extend(key.String(), 0, []storage.RowRange{{Start: 0, End: 1}}, 2500)
	cand, _ = c.Best([]string{key.String()})
	if cand.Watermark(0) != 3000 {
		t.Fatal("watermark regressed")
	}
	// Extend of unknown key / out-of-range slice is a no-op.
	c.Extend("nope", 0, nil, 10)
	c.Extend(key.String(), 9, nil, 10)
}

func TestCacheExtendBitmap(t *testing.T) {
	tbl := newTestTable(t, "t", 1, 2000)
	c := NewCache(Config{Kind: BitmapIndex, RowsPerBlock: 1000})
	key := simpleKey("t", "p")
	c.Insert(key, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 500, End: 510}}}, []int{2000})
	c.Extend(key.String(), 0, []storage.RowRange{{Start: 4200, End: 4300}}, 5000)
	cand, ok := c.Best([]string{key.String()})
	if !ok {
		t.Fatal("miss")
	}
	rs := cand.AppendRanges(0, nil)
	want := []storage.RowRange{{Start: 0, End: 1000}, {Start: 4000, End: 5000}}
	if len(rs) != 2 || rs[0] != want[0] || rs[1] != want[1] {
		t.Fatalf("ranges %v", rs)
	}
}

func TestCacheExtendStaleEntry(t *testing.T) {
	tbl := newTestTable(t, "t", 1, 1000)
	dim := newTestTable(t, "d", 1, 10)
	c := NewCache(DefaultConfig())
	key := Key{Table: "t", Predicate: "p", SemiJoins: []SemiJoinKey{{JoinPred: "j", BuildKey: "b"}}}
	c.Insert(key, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 0, End: 10}}}, []int{1000})
	// Make it stale via a second entry with deps, then vacuum the base.
	c.Insert(key, tbl, tbl.LayoutEpoch(), []BuildDep{{Table: dim, Version: dim.Version()}}, [][]storage.RowRange{{{Start: 0, End: 10}}}, []int{1000})
	dim.BumpVersion()
	c.Extend(key.String(), 0, []storage.RowRange{{Start: 20, End: 30}}, 1200)
	if c.Stats().Entries != 0 {
		t.Fatal("stale entry survived extend")
	}
}

func TestCacheEviction(t *testing.T) {
	tbl := newTestTable(t, "t", 1, 100000)
	c := NewCache(Config{Kind: RangeIndex, MaxRanges: 1024, MemBudget: 20000})
	// Insert entries until the budget forces eviction.
	for i := 0; i < 50; i++ {
		key := simpleKey("t", fmt.Sprintf("p%d", i))
		var rs []storage.RowRange
		for j := 0; j < 100; j++ {
			rs = append(rs, storage.RowRange{Start: j * 10, End: j*10 + 5})
		}
		c.Insert(key, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{rs}, []int{100000})
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under budget pressure")
	}
	if st.MemBytes > 20000 {
		t.Fatalf("over budget: %d", st.MemBytes)
	}
	// Most recent entry must still be present (LRU evicts oldest).
	if _, ok := c.Best([]string{simpleKey("t", "p49").String()}); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := c.Best([]string{simpleKey("t", "p0").String()}); ok {
		t.Fatal("oldest entry survived")
	}
}

func TestCacheLRUTouchOrder(t *testing.T) {
	tbl := newTestTable(t, "t", 1, 1000)
	c := NewCache(Config{Kind: RangeIndex, MaxRanges: 8, MemBudget: 1 << 30})
	for i := 0; i < 3; i++ {
		c.Insert(simpleKey("t", fmt.Sprintf("p%d", i)), tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 0, End: 1}}}, []int{1000})
	}
	// Touch p0 so p1 becomes LRU.
	if _, ok := c.Best([]string{simpleKey("t", "p0").String()}); !ok {
		t.Fatal("p0 missing")
	}
	// Shrink the budget by re-creating with small budget is complex; instead
	// verify the intrusive list directly via eviction behaviour in
	// TestCacheEviction. Here check Clear.
	c.Clear()
	if st := c.Stats(); st.Entries != 0 || st.MemBytes != 0 {
		t.Fatalf("clear failed: %+v", st)
	}
}

func TestCacheReinsertReplaces(t *testing.T) {
	tbl := newTestTable(t, "t", 1, 1000)
	c := NewCache(Config{Kind: RangeIndex, MaxRanges: 8})
	key := simpleKey("t", "p")
	c.Insert(key, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 0, End: 10}}}, []int{500})
	c.Insert(key, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 50, End: 60}}}, []int{1000})
	cand, _ := c.Best([]string{key.String()})
	if len(cand.AppendRanges(0, nil)) != 1 || cand.AppendRanges(0, nil)[0].Start != 50 {
		t.Fatalf("reinsert did not replace: %v", cand.AppendRanges(0, nil))
	}
	if c.Stats().Entries != 1 {
		t.Fatal("duplicate entries")
	}
}

func TestCacheInvalidateTable(t *testing.T) {
	t1 := newTestTable(t, "t1", 1, 100)
	t2 := newTestTable(t, "t2", 1, 100)
	c := NewCache(DefaultConfig())
	c.Insert(simpleKey("t1", "a"), t1, t1.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 0, End: 1}}}, []int{100})
	c.Insert(simpleKey("t1", "b"), t1, t1.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 0, End: 1}}}, []int{100})
	c.Insert(simpleKey("t2", "a"), t2, t2.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 0, End: 1}}}, []int{100})
	c.InvalidateTable("t1")
	st := c.Stats()
	if st.Entries != 1 || st.Invalidations != 2 {
		t.Fatalf("stats %+v", st)
	}
	if _, ok := c.Best([]string{simpleKey("t2", "a").String()}); !ok {
		t.Fatal("t2 entry lost")
	}
}

func TestCacheMemAccounting(t *testing.T) {
	tbl := newTestTable(t, "t", 1, 100000)
	c := NewCache(Config{Kind: RangeIndex, MaxRanges: 1024})
	key := simpleKey("t", "p")
	var rs []storage.RowRange
	for j := 0; j < 500; j++ {
		rs = append(rs, storage.RowRange{Start: j * 20, End: j*20 + 5})
	}
	c.Insert(key, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{rs}, []int{100000})
	m := c.EntryMemBytes(key.String())
	if m < 500*16 {
		t.Fatalf("entry mem %d suspiciously small", m)
	}
	if c.Stats().MemBytes != m {
		t.Fatal("cache mem != entry mem")
	}
	if c.EntryMemBytes("nope") != 0 {
		t.Fatal("phantom entry mem")
	}
}

func TestEntryKindString(t *testing.T) {
	if RangeIndex.String() != "range" || BitmapIndex.String() != "bitmap" {
		t.Fatal("kind names")
	}
}

func TestAdmissionDefersUntilRepeat(t *testing.T) {
	tbl := newTestTable(t, "t", 1, 1000)
	c := NewCache(Config{Kind: BitmapIndex, AdmitAfter: 3})
	key := simpleKey("t", "p")
	rs := [][]storage.RowRange{{{Start: 0, End: 10}}}
	wm := []int{1000}
	c.Insert(key, tbl, tbl.LayoutEpoch(), nil, rs, wm)
	c.Insert(key, tbl, tbl.LayoutEpoch(), nil, rs, wm)
	if _, ok := c.Best([]string{key.String()}); ok {
		t.Fatal("entry admitted before threshold")
	}
	if c.Stats().AdmissionDeferred != 2 {
		t.Fatalf("deferred %d", c.Stats().AdmissionDeferred)
	}
	c.Insert(key, tbl, tbl.LayoutEpoch(), nil, rs, wm) // third sighting admits
	if _, ok := c.Best([]string{key.String()}); !ok {
		t.Fatal("entry not admitted at threshold")
	}
	// A different key starts its own count.
	other := simpleKey("t", "q")
	c.Insert(other, tbl, tbl.LayoutEpoch(), nil, rs, wm)
	if _, ok := c.Best([]string{other.String()}); ok {
		t.Fatal("fresh key admitted immediately")
	}
}

func TestAdmissionRejectsUnselective(t *testing.T) {
	tbl := newTestTable(t, "t", 1, 1000)
	c := NewCache(Config{Kind: RangeIndex, MaxRanges: 8, MaxSelectivity: 0.5})
	wide := simpleKey("t", "wide")
	c.Insert(wide, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 0, End: 900}}}, []int{1000})
	if _, ok := c.Best([]string{wide.String()}); ok {
		t.Fatal("high-selectivity entry admitted")
	}
	if c.Stats().AdmissionRejected != 1 {
		t.Fatal("rejection not counted")
	}
	narrow := simpleKey("t", "narrow")
	c.Insert(narrow, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 0, End: 100}}}, []int{1000})
	if _, ok := c.Best([]string{narrow.String()}); !ok {
		t.Fatal("low-selectivity entry rejected")
	}
	// Clear resets admission history too.
	c2 := NewCache(Config{Kind: BitmapIndex, AdmitAfter: 2})
	k := simpleKey("t", "p")
	c2.Insert(k, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 0, End: 1}}}, []int{1000})
	c2.Clear()
	c2.Insert(k, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 0, End: 1}}}, []int{1000})
	if _, ok := c2.Best([]string{k.String()}); ok {
		t.Fatal("admission history survived Clear")
	}
}

func TestHas(t *testing.T) {
	tbl := newTestTable(t, "t", 1, 1000)
	c := NewCache(DefaultConfig())
	key := simpleKey("t", "p")
	if c.Has(key.String()) {
		t.Fatal("phantom has")
	}
	c.Insert(key, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{{{Start: 0, End: 1}}}, []int{1000})
	misses := c.Stats().Misses
	if !c.Has(key.String()) {
		t.Fatal("has missed")
	}
	if c.Stats().Misses != misses || c.Stats().Hits != 0 {
		t.Fatal("Has touched counters")
	}
	tbl.Vacuum(0)
	if c.Has(key.String()) {
		t.Fatal("stale entry reported")
	}
}

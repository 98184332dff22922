package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func testSchema() Schema {
	return Schema{
		{"id", Int64},
		{"price", Float64},
		{"name", String},
		{"day", Date},
	}
}

func fillBatch(n int, seed int64) *Batch {
	r := rand.New(rand.NewSource(seed))
	b := NewBatch(testSchema())
	for i := 0; i < n; i++ {
		b.Cols[0].Ints = append(b.Cols[0].Ints, int64(i))
		b.Cols[1].Floats = append(b.Cols[1].Floats, float64(r.Intn(1000))/10)
		b.Cols[2].Strings = append(b.Cols[2].Strings, fmt.Sprintf("name-%d", r.Intn(50)))
		b.Cols[3].Ints = append(b.Cols[3].Ints, int64(r.Intn(3650)))
	}
	b.N = n
	return b
}

func TestTableAppendAndRead(t *testing.T) {
	tbl, err := NewTable("t", testSchema(), 4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5500
	if err := tbl.Append(fillBatch(n, 1), 1); err != nil {
		t.Fatal(err)
	}
	if got := tbl.NumRows(); got != n {
		t.Fatalf("NumRows=%d want %d", got, n)
	}
	// Round-robin chunking: 6 chunks of <=1000 over 4 slices.
	counts := 0
	for i := 0; i < tbl.NumSlices(); i++ {
		counts += tbl.Slice(i).NumRows()
	}
	if counts != n {
		t.Fatalf("slice rows sum %d want %d", counts, n)
	}

	// All ids present exactly once across slices.
	seen := make(map[int64]int)
	scratch := make([]int64, BlockSize)
	for i := 0; i < tbl.NumSlices(); i++ {
		s := tbl.Slice(i)
		col := s.Column(0)
		for blk := 0; blk*BlockSize < s.NumRows(); blk++ {
			cnt := col.ReadIntBlock(blk, scratch)
			for j := 0; j < cnt; j++ {
				seen[scratch[j]]++
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("distinct ids %d want %d", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("id %d appears %d times", id, c)
		}
	}
}

func TestTableStringDictionary(t *testing.T) {
	tbl, _ := NewTable("t", testSchema(), 2)
	if err := tbl.Append(fillBatch(100, 2), 1); err != nil {
		t.Fatal(err)
	}
	d := tbl.Dict(2)
	if d == nil {
		t.Fatal("no dict for string column")
	}
	if d.Len() == 0 || d.Len() > 50 {
		t.Fatalf("dict size %d", d.Len())
	}
	code, ok := d.Lookup(d.Value(0))
	if !ok || code != 0 {
		t.Fatal("dict lookup broken")
	}
	if _, ok := d.Lookup("never-seen"); ok {
		t.Fatal("phantom dict entry")
	}
}

func TestTableSchemaValidation(t *testing.T) {
	if _, err := NewTable("t", Schema{{"a", Int64}, {"a", Int64}}, 1); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := NewTable("t", testSchema(), 0); err == nil {
		t.Fatal("zero slices accepted")
	}
	if _, err := NewTable("t", testSchema(), 1, "nope"); err == nil {
		t.Fatal("bad sort key accepted")
	}
	tbl, _ := NewTable("t", testSchema(), 1)
	bad := NewBatch(Schema{{"a", Int64}})
	if err := tbl.Append(bad, 1); err == nil {
		t.Fatal("column count mismatch accepted")
	}
	b := NewBatch(testSchema())
	b.N = 3 // vectors empty -> length mismatch
	if err := tbl.Append(b, 1); err == nil {
		t.Fatal("vector length mismatch accepted")
	}
}

func TestMVCCVisibility(t *testing.T) {
	tbl, _ := NewTable("t", testSchema(), 1)
	if err := tbl.Append(fillBatch(10, 3), 5); err != nil {
		t.Fatal(err)
	}
	s := tbl.Slice(0)
	if s.Visible(0, 4) {
		t.Fatal("row visible before insert xid")
	}
	if !s.Visible(0, 5) || !s.Visible(0, 100) {
		t.Fatal("row invisible after insert xid")
	}
	// A slice nothing was deleted from carries no deletion headers.
	if s.DeleteXIDs() != nil || s.HasDeletionsIn(0, 10) {
		t.Fatal("deletion headers before the first delete")
	}
	liveBytes := s.MemBytes()
	tbl.DeleteRows([][]int{{3}}, 7)
	if got := s.MemBytes() - liveBytes; got != 10*8 {
		t.Fatalf("first delete added %d header bytes, want 80", got)
	}
	if !s.Visible(3, 6) {
		t.Fatal("deleted row invisible before delete xid")
	}
	if s.Visible(3, 7) || s.Visible(3, 100) {
		t.Fatal("deleted row visible after delete xid")
	}
	if !s.HasDeletionsIn(0, 10) {
		t.Fatal("HasDeletionsIn missed the delete")
	}
	if s.HasDeletionsIn(4, 10) {
		t.Fatal("HasDeletionsIn false positive")
	}
	// Deleting again keeps the earliest xid.
	tbl.DeleteRows([][]int{{3}}, 9)
	if s.DeleteXIDs()[3] != 7 {
		t.Fatal("re-delete overwrote xid")
	}
	// Rows appended afterwards get a header too, and are live.
	if err := tbl.Append(fillBatch(5, 4), 10); err != nil {
		t.Fatal(err)
	}
	if n := len(s.DeleteXIDs()); n != 15 || !s.Visible(12, 10) {
		t.Fatalf("%d deletion headers for 15 rows", n)
	}
	// A vacuum that reclaims every deleted row leaves none behind.
	tbl.Vacuum(100)
	if s := tbl.Slice(0); s.NumRows() != 14 || s.DeleteXIDs() != nil {
		t.Fatalf("after vacuum: %d rows, %d deletion headers", s.NumRows(), len(s.DeleteXIDs()))
	}
}

func TestTableVersioning(t *testing.T) {
	tbl, _ := NewTable("t", testSchema(), 1)
	v0 := tbl.Version()
	if err := tbl.Append(fillBatch(5, 4), 1); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() == v0 {
		t.Fatal("append did not bump version")
	}
	v1 := tbl.Version()
	tbl.DeleteRows([][]int{{0}}, 2)
	if tbl.Version() == v1 {
		t.Fatal("delete did not bump version")
	}
	e0 := tbl.LayoutEpoch()
	tbl.BumpVersion()
	if tbl.LayoutEpoch() != e0 {
		t.Fatal("BumpVersion must not change layout epoch")
	}
}

func TestVacuumReclaimsAndBumpsEpoch(t *testing.T) {
	tbl, _ := NewTable("t", testSchema(), 2)
	if err := tbl.Append(fillBatch(2500, 5), 1); err != nil {
		t.Fatal(err)
	}
	tbl.DeleteRows([][]int{{0, 1, 2}}, 2)
	tbl.DeleteRows([][]int{1: {5}}, 3)
	e0 := tbl.LayoutEpoch()
	tbl.Vacuum(10)
	if tbl.LayoutEpoch() == e0 {
		t.Fatal("vacuum did not bump layout epoch")
	}
	if got := tbl.NumRows(); got != 2500-4 {
		t.Fatalf("after vacuum NumRows=%d want %d", got, 2496)
	}
	// No physical rows should carry deletion marks.
	for i := 0; i < tbl.NumSlices(); i++ {
		s := tbl.Slice(i)
		if s.HasDeletionsIn(0, s.NumRows()) {
			t.Fatal("vacuum left deletion marks")
		}
	}
}

func TestVacuumKeepsRecentDeletes(t *testing.T) {
	tbl, _ := NewTable("t", testSchema(), 1)
	if err := tbl.Append(fillBatch(100, 6), 1); err != nil {
		t.Fatal(err)
	}
	tbl.DeleteRows([][]int{{7}}, 50)
	tbl.Vacuum(10) // horizon below the delete xid: row must survive
	if got := tbl.NumRows(); got != 100 {
		t.Fatalf("NumRows=%d want 100", got)
	}
	s := tbl.Slice(0)
	if !s.HasDeletionsIn(0, 100) {
		t.Fatal("recent delete mark lost by vacuum")
	}
}

// visibleIDs returns the ids of tbl's rows visible at snapshot, sorted.
func visibleIDs(tbl *Table, snapshot uint64) []int64 {
	unlock := tbl.RLockScan()
	defer unlock()
	var ids []int64
	buf := make([]int64, BlockSize)
	for si := 0; si < tbl.NumSlices(); si++ {
		s := tbl.Slice(si)
		for blk := 0; blk < s.NumBlocks(); blk++ {
			n := s.Column(0).ReadIntBlock(blk, buf)
			for i := 0; i < n; i++ {
				if s.Visible(blk*BlockSize+i, snapshot) {
					ids = append(ids, buf[i])
				}
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestVacuumKeepsRowsPinnedSnapshotSees: a statement pins its snapshot, rows
// are deleted after it, and a vacuum at the catalog's horizon runs. The
// pinned snapshot must still see every row it saw, and the vacuum reports
// the deleted rows it kept for that reason; once the pin is released the
// next vacuum reclaims them.
func TestVacuumKeepsRowsPinnedSnapshotSees(t *testing.T) {
	cat := NewCatalog()
	tbl, err := cat.CreateTable("t", testSchema(), 2, "day")
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Commit(func(xid uint64) error { return tbl.SortedLoad(fillBatch(3000, 8), xid) }); err != nil {
		t.Fatal(err)
	}
	pinned := cat.Pin()
	before := visibleIDs(tbl, pinned)
	del := [][]int{{0, 5, 17, 1200}, {3, 999}}
	var deleted int
	_ = cat.Commit(func(xid uint64) error { deleted = tbl.DeleteRows(del, xid); return nil }) // apply cannot fail
	if deleted != 6 {
		t.Fatalf("deleted %d rows, want 6", deleted)
	}
	if kept := tbl.Vacuum(cat.Horizon()); kept != deleted {
		t.Fatalf("vacuum kept %d rows deleted after the horizon, want %d", kept, deleted)
	}
	if after := visibleIDs(tbl, pinned); !reflect.DeepEqual(after, before) {
		t.Fatalf("pinned snapshot sees %d rows after vacuum, %d before", len(after), len(before))
	}
	if got := len(visibleIDs(tbl, cat.Snapshot())); got != 3000-deleted {
		t.Fatalf("current snapshot sees %d rows, want %d", got, 3000-deleted)
	}
	cat.Unpin(pinned)
	if kept := tbl.Vacuum(cat.Horizon()); kept != 0 || tbl.NumRows() != 3000-deleted {
		t.Fatalf("vacuum without pins kept %d deleted rows and left %d rows, want 0 and %d", kept, tbl.NumRows(), 3000-deleted)
	}
}

func TestSortedLoadAndVacuumResort(t *testing.T) {
	tbl, _ := NewTable("t", testSchema(), 2, "day")
	b := fillBatch(3000, 7)
	if err := tbl.SortedLoad(b, 1); err != nil {
		t.Fatal(err)
	}
	// Appended rows go to the insert buffer unsorted; vacuum merges them.
	if err := tbl.Append(fillBatch(500, 8), 2); err != nil {
		t.Fatal(err)
	}
	tbl.Vacuum(100)

	// After vacuum the day column must be globally sorted in slice-chunk
	// order: chunks are distributed round-robin from a sorted stream, so
	// within each slice the values must be non-decreasing.
	scratch := make([]int64, BlockSize)
	for i := 0; i < tbl.NumSlices(); i++ {
		s := tbl.Slice(i)
		col := s.Column(3)
		prev := int64(-1 << 62)
		for blk := 0; blk*BlockSize < s.NumRows(); blk++ {
			cnt := col.ReadIntBlock(blk, scratch)
			for j := 0; j < cnt; j++ {
				if scratch[j] < prev {
					t.Fatalf("slice %d not sorted after vacuum", i)
				}
				prev = scratch[j]
			}
		}
	}
	if tbl.NumRows() != 3500 {
		t.Fatalf("rows %d want 3500", tbl.NumRows())
	}
}

func TestSortedLoadRequiresEmptyTable(t *testing.T) {
	tbl, _ := NewTable("t", testSchema(), 1, "id")
	if err := tbl.SortedLoad(fillBatch(10, 9), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SortedLoad(fillBatch(10, 10), 2); err == nil {
		t.Fatal("SortedLoad on non-empty table accepted")
	}
}

func TestZoneMapBounds(t *testing.T) {
	tbl, _ := NewTable("t", testSchema(), 1)
	b := NewBatch(testSchema())
	for i := 0; i < 2000; i++ {
		b.Cols[0].Ints = append(b.Cols[0].Ints, int64(i))
		b.Cols[1].Floats = append(b.Cols[1].Floats, float64(i)/2)
		b.Cols[2].Strings = append(b.Cols[2].Strings, "x")
		b.Cols[3].Ints = append(b.Cols[3].Ints, 0)
	}
	b.N = 2000
	if err := tbl.Append(b, 1); err != nil {
		t.Fatal(err)
	}
	col := tbl.Slice(0).Column(0)
	min, max, ok := col.IntBounds(0)
	if !ok || min != 0 || max != 999 {
		t.Fatalf("block 0 bounds [%d,%d] ok=%v", min, max, ok)
	}
	min, max, ok = col.IntBounds(1)
	if !ok || min != 1000 || max != 1999 {
		t.Fatalf("block 1 bounds [%d,%d] ok=%v", min, max, ok)
	}
	fcol := tbl.Slice(0).Column(1)
	fmin, fmax, ok := fcol.FloatBounds(0)
	if !ok || fmin != 0 || fmax != 999.0/2 {
		t.Fatalf("float block 0 bounds [%f,%f]", fmin, fmax)
	}
	if tbl.ZoneMapBytes() == 0 {
		t.Fatal("zone map bytes zero")
	}
}

func TestTailBlockBounds(t *testing.T) {
	tbl, _ := NewTable("t", testSchema(), 1)
	b := fillBatch(150, 11)
	if err := tbl.Append(b, 1); err != nil {
		t.Fatal(err)
	}
	col := tbl.Slice(0).Column(0)
	if col.NumBlocks() != 1 {
		t.Fatalf("blocks=%d want 1 (open tail)", col.NumBlocks())
	}
	min, max, ok := col.IntBounds(0)
	if !ok || min != 0 || max != 149 {
		t.Fatalf("tail bounds [%d,%d]", min, max)
	}
	scratch := make([]int64, BlockSize)
	if n := col.ReadIntBlock(0, scratch); n != 150 {
		t.Fatalf("tail read %d rows", n)
	}
}

func TestPointAccessors(t *testing.T) {
	tbl, _ := NewTable("t", testSchema(), 1)
	if err := tbl.Append(fillBatch(2500, 12), 1); err != nil {
		t.Fatal(err)
	}
	s := tbl.Slice(0)
	iScratch := make([]int64, BlockSize)
	fScratch := make([]float64, BlockSize)
	// Compare point accessors against block reads.
	want := make([]int64, BlockSize)
	col := s.Column(0)
	for blk := 0; blk*BlockSize < s.NumRows(); blk++ {
		n := col.ReadIntBlock(blk, want)
		for j := 0; j < n; j++ {
			if got := col.IntAt(blk*BlockSize+j, iScratch); got != want[j] {
				t.Fatalf("IntAt(%d)=%d want %d", blk*BlockSize+j, got, want[j])
			}
		}
	}
	fcol := s.Column(1)
	fwant := make([]float64, BlockSize)
	for blk := 0; blk*BlockSize < s.NumRows(); blk++ {
		n := fcol.ReadFloatBlock(blk, fwant)
		for j := 0; j < n; j++ {
			if got := fcol.FloatAt(blk*BlockSize+j, fScratch); got != fwant[j] {
				t.Fatalf("FloatAt mismatch")
			}
		}
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	if c.Snapshot() != 0 {
		t.Fatal("fresh catalog snapshot != 0")
	}
	var xids []uint64
	for i := 0; i < 2; i++ {
		if err := c.Commit(func(xid uint64) error {
			if c.Snapshot() != xid-1 {
				t.Errorf("xid %d visible to snapshots before its rows are in", xid)
			}
			xids = append(xids, xid)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if xids[0] != 1 || xids[1] != 2 || c.Snapshot() != 2 {
		t.Fatalf("xid sequence %v, snapshot %d; want [1 2], 2", xids, c.Snapshot())
	}
	tbl, err := c.CreateTable("a", testSchema(), 2)
	if err != nil || tbl == nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("a", testSchema(), 2); err == nil {
		t.Fatal("duplicate table accepted")
	}
	got, ok := c.Table("a")
	if !ok || got != tbl {
		t.Fatal("lookup failed")
	}
	other, _ := NewTable("b", testSchema(), 1)
	if err := c.RegisterTable(other); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTable(other); err == nil {
		t.Fatal("duplicate register accepted")
	}
	names := c.TableNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names %v", names)
	}
	c.DropTable("a")
	if _, ok := c.Table("a"); ok {
		t.Fatal("drop failed")
	}
}

func TestScanStats(t *testing.T) {
	var a ScanStats
	a.RowsScanned.Add(15)
	a.BlocksAccessed.Add(2)
	a.CacheHits.Add(1)
	snap := a.Snapshot()
	if snap.RowsScanned != 15 || snap.BlocksAccessed != 2 || snap.CacheHits != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
}

func TestMemBytes(t *testing.T) {
	tbl, _ := NewTable("t", testSchema(), 1)
	if err := tbl.Append(fillBatch(5000, 13), 1); err != nil {
		t.Fatal(err)
	}
	if tbl.MemBytes() <= 0 {
		t.Fatal("MemBytes zero")
	}
}

func TestAccessorCoverage(t *testing.T) {
	tbl, _ := NewTable("t", testSchema(), 2)
	if err := tbl.Append(fillBatch(2500, 50), 1); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Schema()) != 4 || tbl.ColumnIndex("price") != 1 || tbl.ColumnIndex("zz") != -1 {
		t.Fatal("schema accessors")
	}
	if tbl.ColumnType(1) != Float64 || tbl.ColumnType(0) != Int64 {
		t.Fatal("column types")
	}
	s := tbl.Slice(0)
	if s.NumBlocks() != (s.NumRows()+BlockSize-1)/BlockSize {
		t.Fatal("NumBlocks")
	}
	if len(s.InsertXIDs()) != s.NumRows() {
		t.Fatal("InsertXIDs")
	}
	col := s.Column(0)
	if col.Len() != s.NumRows() {
		t.Fatalf("col len %d want %d", col.Len(), s.NumRows())
	}
	if col.String() == "" {
		t.Fatal("col string")
	}
	fcol := s.Column(1)
	if fcol.Len() != s.NumRows() {
		t.Fatal("float col len")
	}
	if tbl.DeleteOps() != 0 {
		t.Fatal("delete ops")
	}
	tbl.DeleteRows([][]int{{0}}, 2)
	if tbl.DeleteOps() != 1 {
		t.Fatal("delete ops after delete")
	}
}

func TestFloatBoundsTail(t *testing.T) {
	tbl, _ := NewTable("t", testSchema(), 1)
	if err := tbl.Append(fillBatch(150, 51), 1); err != nil { // open tail only
		t.Fatal(err)
	}
	fcol := tbl.Slice(0).Column(1)
	min, max, ok := fcol.FloatBounds(0)
	if !ok || min > max {
		t.Fatalf("tail float bounds [%f,%f] ok=%v", min, max, ok)
	}
	// Empty column: no bounds.
	empty, _ := NewTable("e", testSchema(), 1)
	if _, _, ok := empty.Slice(0).Column(1).FloatBounds(0); ok {
		t.Fatal("bounds on empty float column")
	}
	if _, _, ok := empty.Slice(0).Column(0).IntBounds(0); ok {
		t.Fatal("bounds on empty int column")
	}
}

func TestDistinctCount(t *testing.T) {
	tbl, _ := NewTable("t", testSchema(), 2)
	b := NewBatch(testSchema())
	for i := 0; i < 3000; i++ {
		b.Cols[0].Ints = append(b.Cols[0].Ints, int64(i%7))
		b.Cols[1].Floats = append(b.Cols[1].Floats, float64(i))
		b.Cols[2].Strings = append(b.Cols[2].Strings, "x")
		b.Cols[3].Ints = append(b.Cols[3].Ints, 5)
	}
	b.N = 3000
	if err := tbl.Append(b, 1); err != nil {
		t.Fatal(err)
	}
	if got := tbl.DistinctCount(0); got != 7 {
		t.Fatalf("distinct %d want 7", got)
	}
	// Cached: second call identical.
	if got := tbl.DistinctCount(0); got != 7 {
		t.Fatal("cache broken")
	}
	if got := tbl.DistinctCount(3); got != 1 {
		t.Fatalf("constant col distinct %d", got)
	}
	// Floats: treated as all-distinct (never join keys).
	if got := tbl.DistinctCount(1); got != 3000 {
		t.Fatalf("float distinct %d", got)
	}
	// Version change invalidates the cache.
	tbl.DeleteRows([][]int{{0}}, 2)
	if got := tbl.DistinctCount(0); got != 7 {
		t.Fatal("post-DML distinct")
	}
}

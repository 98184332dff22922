package systab

import (
	"strings"
	"testing"
	"time"

	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/obs"
	"github.com/predcache/predcache/internal/storage"
)

func TestRecorderRingSemantics(t *testing.T) {
	q := NewQueryRecorder(3)
	if q.Capacity() != 3 || q.Len() != 0 {
		t.Fatalf("fresh recorder: cap=%d len=%d", q.Capacity(), q.Len())
	}
	for i := 0; i < 5; i++ {
		q.Append(&QueryRecord{Seq: int64(i), SQL: strings.Repeat("x", i+1)})
	}
	if q.Len() != 3 {
		t.Fatalf("after 5 records: len=%d", q.Len())
	}
	recs := q.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	// Oldest-first, and the two oldest were overwritten.
	for i, want := range []int64{2, 3, 4} {
		if recs[i].Seq != want {
			t.Errorf("record %d: seq=%d want %d", i, recs[i].Seq, want)
		}
		if len(recs[i].SQL) != int(want)+1 {
			t.Errorf("record %d: sql=%q, want %d chars", i, recs[i].SQL, want+1)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var q *QueryRecorder // also what NewQueryRecorder(0) returns
	if got := NewQueryRecorder(0); got != nil {
		t.Fatalf("capacity 0 should disable recording")
	}
	q.Append(&QueryRecord{SQL: "dropped"})
	if q.Records() != nil || q.Len() != 0 || q.Capacity() != 0 {
		t.Fatalf("nil recorder must be empty")
	}
}

// The slow flag is the DB's decision (one threshold, computed once per
// statement): the recorder stores it as given and never derives its own from
// the wall time.
func TestRecorderSlowFlag(t *testing.T) {
	q := NewQueryRecorder(4)
	q.Append(&QueryRecord{WallMicros: 5_000_000})
	q.Append(&QueryRecord{WallMicros: 1, Slow: true})
	recs := q.Records()
	if recs[0].Slow {
		t.Errorf("recorder flagged a record slow on its own")
	}
	if !recs[1].Slow {
		t.Errorf("recorder dropped the event's slow flag")
	}
	rel, err := QueryLogTable(q).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.ColByName("slow").Ints; got[0] != 0 || got[1] != 1 {
		t.Errorf("pc.query_log.slow = %v, want [0 1]", got)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	vt := QueryLogTable(NewQueryRecorder(4))
	if err := r.Register(vt); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(vt); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register(badName{}); err == nil {
		t.Fatal("non-pc name accepted")
	}
	got, ok := r.VirtualTable("pc.query_log")
	if !ok || got != vt {
		t.Fatalf("resolve failed: %v %v", got, ok)
	}
	if _, ok := r.VirtualTable("pc.nope"); ok {
		t.Fatal("resolved unknown table")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "pc.query_log" {
		t.Fatalf("names = %v", names)
	}
}

// badName is a provider outside the pc schema, for Register validation.
type badName struct{ engine.VirtualTable }

func (badName) Name() string { return "not_system" }

func TestQueryLogTableSnapshot(t *testing.T) {
	rec := NewQueryRecorder(8)
	rec.Append(&QueryRecord{SQL: "select 1", Rows: 7, RowsScanned: 100, CacheMisses: 1})
	rec.Append(&QueryRecord{SQL: "select 2", Error: "nope"})
	vt := QueryLogTable(rec)
	if vt.NumRows() != 2 {
		t.Fatalf("NumRows = %d", vt.NumRows())
	}
	rel, err := vt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 2 || rel.NumCols() != len(queryLogSchema) {
		t.Fatalf("snapshot %dx%d", rel.NumRows(), rel.NumCols())
	}
	if got := rel.ColByName("query_text").Dict.Value(rel.ColByName("query_text").Ints[0]); got != "select 1" {
		t.Errorf("query_text[0] = %q", got)
	}
	if got := rel.ColByName("result_rows").Ints[0]; got != 7 {
		t.Errorf("result_rows[0] = %d", got)
	}
	if got := rel.ColByName("error").Dict.Value(rel.ColByName("error").Ints[1]); got != "nope" {
		t.Errorf("error[1] = %q", got)
	}
	// Empty and nil recorders snapshot to zero rows with the full schema.
	for _, r := range []*QueryRecorder{NewQueryRecorder(2), nil} {
		rel, err := QueryLogTable(r).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if rel.NumRows() != 0 || rel.NumCols() != len(queryLogSchema) {
			t.Fatalf("empty snapshot %dx%d", rel.NumRows(), rel.NumCols())
		}
	}
}

func TestCacheTablesNilCache(t *testing.T) {
	rel, err := CacheEntriesTable(nil).Snapshot()
	if err != nil || rel.NumRows() != 0 {
		t.Fatalf("nil cache entries: %v rows=%d", err, rel.NumRows())
	}
	rel, err = CacheStatsTable(nil).Snapshot()
	if err != nil || rel.NumRows() != 1 {
		t.Fatalf("nil cache stats: %v rows=%d", err, rel.NumRows())
	}
	if rel.ColByName("enabled").Ints[0] != 0 {
		t.Fatal("nil cache reported enabled")
	}
}

func TestTableStorageSnapshot(t *testing.T) {
	cat := storage.NewCatalog()
	schema := storage.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "tag", Type: storage.String},
	}
	tbl, err := cat.CreateTable("t", schema, 2)
	if err != nil {
		t.Fatal(err)
	}
	batch := storage.NewBatch(schema)
	for i := 0; i < 2500; i++ {
		batch.Cols[0].Ints = append(batch.Cols[0].Ints, int64(i))
		batch.Cols[1].Strings = append(batch.Cols[1].Strings, "v")
		batch.N++
	}
	if err := cat.Commit(func(xid uint64) error { return tbl.Append(batch, xid) }); err != nil {
		t.Fatal(err)
	}
	vt := TableStorageTable(cat)
	if vt.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want one per column", vt.NumRows())
	}
	rel, err := vt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rows := int64(0)
	for i := 0; i < rel.NumRows(); i++ {
		rows += rel.ColByName("result_rows").Ints[i]
		if name := rel.ColByName("table_name").Dict.Value(rel.ColByName("table_name").Ints[i]); name != "t" {
			t.Errorf("table_name[%d] = %q", i, name)
		}
	}
	if rows != 5000 { // 2500 values in each of 2 columns
		t.Errorf("total column values = %d, want 5000", rows)
	}
	// The string column carries dictionary bytes, the int column none.
	for i := 0; i < rel.NumRows(); i++ {
		cn := rel.ColByName("column_name").Dict.Value(rel.ColByName("column_name").Ints[i])
		dict := rel.ColByName("dict_bytes").Ints[i]
		if cn == "tag" && dict == 0 {
			t.Errorf("string column reports no dict bytes")
		}
		if cn == "id" && dict != 0 {
			t.Errorf("int column reports dict bytes")
		}
	}
}

func TestMetricsTableSnapshot(t *testing.T) {
	// Nil source and nil registry both snapshot empty.
	for _, src := range []func() *obs.Metrics{nil, func() *obs.Metrics { return nil }} {
		rel, err := MetricsTable(src).Snapshot()
		if err != nil || rel.NumRows() != 0 {
			t.Fatalf("empty metrics: %v rows=%d", err, rel.NumRows())
		}
	}
	m := obs.NewMetrics()
	m.NewCounter("test_total", "A counter.").Add(42)
	m.NewGauge("test_gauge", "A gauge.", func() float64 { return 1.5 })
	h := &obs.SLOHistogram{}
	h.Observe(500*time.Millisecond, -1, false)
	m.NewHistogramFunc("test_seconds", "A histogram.", h.Snapshot)
	vt := MetricsTable(func() *obs.Metrics { return m })
	// counter + gauge + histogram _count/_sum
	if vt.NumRows() != 4 {
		t.Fatalf("NumRows = %d", vt.NumRows())
	}
	rel, err := vt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for i := 0; i < rel.NumRows(); i++ {
		name := rel.ColByName("name").Dict.Value(rel.ColByName("name").Ints[i])
		byName[name] = rel.ColByName("value").Floats[i]
	}
	if byName["test_total"] != 42 || byName["test_gauge"] != 1.5 ||
		byName["test_seconds_count"] != 1 || byName["test_seconds_sum"] != 0.5 {
		t.Fatalf("samples = %v", byName)
	}
}

func TestBuilderRejectsShape(t *testing.T) {
	b := newBuilder(storage.Schema{{Name: "a", Type: storage.Int64}})
	defer func() {
		if recover() == nil {
			t.Fatal("short row did not panic")
		}
	}()
	b.row()
}

package predcache_test

import (
	"fmt"
	"math/rand"
	"testing"

	predcache "github.com/predcache/predcache"
	"github.com/predcache/predcache/internal/engine"
)

var kernelEquivSchema = predcache.Schema{
	{Name: "id", Type: predcache.Int64},
	{Name: "grp", Type: predcache.String},
	{Name: "val", Type: predcache.Float64},
	{Name: "runs", Type: predcache.Int64},
	{Name: "wide", Type: predcache.Int64},
}

// kernelEquivDB builds a table whose columns hit every block encoding: a
// sorted key (FOR), a low-cardinality group (RLE-coded dictionary), a float
// measure (raw), a skewed run-heavy int (RLE) and a wide random int (raw).
func kernelEquivDB(t *testing.T, rows int, seed int64, opts ...predcache.Option) *predcache.DB {
	t.Helper()
	db := predcache.Open(append([]predcache.Option{predcache.WithSlices(3)}, opts...)...)
	if err := db.CreateTable("t", kernelEquivSchema); err != nil {
		t.Fatal(err)
	}
	batch := kernelEquivBatch(0, rows, rand.New(rand.NewSource(seed)))
	if err := db.Insert("t", batch); err != nil {
		t.Fatal(err)
	}
	return db
}

// kernelEquivBatch builds n rows of kernelEquivDB's table with ids first,
// first+1, …; the wide column draws from r.
func kernelEquivBatch(first, n int, r *rand.Rand) *predcache.Batch {
	batch := predcache.NewBatch(kernelEquivSchema)
	for i := first; i < first+n; i++ {
		batch.Cols[0].Ints = append(batch.Cols[0].Ints, int64(i))
		batch.Cols[1].Strings = append(batch.Cols[1].Strings, fmt.Sprintf("g%02d", i%5))
		batch.Cols[2].Floats = append(batch.Cols[2].Floats, float64(i%250)/3)
		batch.Cols[3].Ints = append(batch.Cols[3].Ints, int64((i/400)%9)*1e12)
		batch.Cols[4].Ints = append(batch.Cols[4].Ints, int64(r.Uint64()))
	}
	batch.N = n
	return batch
}

// relEqual compares two result relations cell by cell.
func relEqual(a, b *predcache.Result) error {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return fmt.Errorf("shape %dx%d vs %dx%d", a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for row := 0; row < a.NumRows(); row++ {
		for col := 0; col < a.NumCols(); col++ {
			if av, bv := a.StringValue(row, col), b.StringValue(row, col); av != bv {
				return fmt.Errorf("cell (%d,%d): %q vs %q", row, col, av, bv)
			}
		}
	}
	return nil
}

// TestKernelScanEquivalence runs a mix of kernel-eligible and residual
// queries twice — encoded kernels on versus the forced decode-then-filter
// path — over cold and cache-warm scans, and requires identical results.
// This is the end-to-end counterpart of the storage-level range oracles.
func TestKernelScanEquivalence(t *testing.T) {
	db := kernelEquivDB(t, 7300, 11)
	queries := []string{
		"select count(*) as n from t where id between 900 and 5200",
		"select count(*) as n from t where runs = 2000000000000",
		"select sum(val) as s from t where grp = 'g03' and id >= 1500",
		"select count(*) as n from t where wide > 0",
		"select id, val from t where id between 4090 and 4110",
		"select grp, count(*) as n from t where runs in (0, 3000000000000) group by grp order by grp",
		"select count(*) as n from t where val > 40 and id < 6000",
		"select count(*) as n from t where id != 3000 and grp != 'g01'",
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		lo := r.Intn(7300)
		queries = append(queries, fmt.Sprintf(
			"select count(*) as n from t where id between %d and %d and runs >= %d",
			lo, lo+r.Intn(3000), int64(r.Intn(9))*1e12))
	}
	for _, q := range queries {
		// Two passes: the first populates the predicate cache, the second
		// exercises the cache-hit re-filter path through the kernels.
		for pass := 0; pass < 2; pass++ {
			node, err := db.Plan(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			on, err := db.Run(node)
			if err != nil {
				t.Fatalf("%s (kernels on): %v", q, err)
			}
			node, err = db.Plan(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			off, err := db.RunCtx(node, &engine.ExecCtx{DisableEncodedKernels: true})
			if err != nil {
				t.Fatalf("%s (kernels off): %v", q, err)
			}
			if err := relEqual(on, off); err != nil {
				t.Fatalf("%s (pass %d): kernel path diverges from decode path: %v", q, pass, err)
			}
		}
	}
}

// TestKernelDMLEquivalence holds DML row matching to the reference scan.
// DeleteWhere and UpdateWhere find their rows with the engine scan (encoded
// kernels, zone maps, slice workers), so before every statement a serial,
// decode-only count of its WHERE clause fixes how many rows it must touch,
// and after a delete that count must be zero. The sequence starts with a
// delete and inserts fresh rows after its first statement, so matching has
// to skip dead rows and see appended ones. It replays on one worker and on
// four, and the two tables must end identical.
func TestKernelDMLEquivalence(t *testing.T) {
	type dml struct {
		where  string
		update bool
	}
	seq := []dml{
		{"id between 3000 and 3040", false},
		{"grp = 'g03' and id >= 1500", true},
		{"runs = 2000000000000", true},
		{"id between 4090 and 4110", false},
		{"wide > 0", true},
		{"runs in (0, 3000000000000)", true},
		{"val > 40 and id < 6000", true},
		{"id != 3000 and grp != 'g01'", true},
		{"id < 200 or grp = 'g04'", false},
		{"grp in ('g00', 'g02') and id < 4000", true},
		{"val < 5.5", false},
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		lo := r.Intn(7300)
		seq = append(seq, dml{fmt.Sprintf("id between %d and %d and runs >= %d",
			lo, lo+r.Intn(3000), int64(r.Intn(9))*1e12), i%2 == 0})
	}
	seq = append(seq, dml{"id between 900 and 5200", false})
	// The reference count: one worker, every block decoded, no cache.
	reference := func(db *predcache.DB, where string) int64 {
		t.Helper()
		node, err := db.Plan("select count(*) as n from t where " + where)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		res, err := db.RunCtx(node, &engine.ExecCtx{Serial: true, DisableEncodedKernels: true})
		if err != nil {
			t.Fatalf("%s (reference): %v", where, err)
		}
		return res.Col(0).Ints[0]
	}
	// An update moves each row to the next group, g04 to the new gx, and
	// bumps runs off its run value.
	nextGrp := map[string]string{"g00": "g01", "g01": "g02", "g02": "g03", "g03": "g04", "g04": "gx", "gx": "g00"}
	rewrite := func(b *predcache.Batch) {
		for i, g := range b.Cols[1].Strings {
			b.Cols[1].Strings[i] = nextGrp[g]
			b.Cols[3].Ints[i]++
		}
	}
	replay := func(workers int) *predcache.Result {
		db := kernelEquivDB(t, 7300, 11, predcache.WithMaxWorkers(workers))
		for i, st := range seq {
			want := reference(db, st.where)
			pred := mustPred(t, st.where)
			var got int
			var err error
			if st.update {
				got, err = db.UpdateWhere("t", pred, rewrite)
			} else {
				got, err = db.DeleteWhere("t", pred)
			}
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, st.where, err)
			}
			if int64(got) != want {
				t.Fatalf("workers=%d %s (update=%v): touched %d rows, reference scan matches %d",
					workers, st.where, st.update, got, want)
			}
			if !st.update {
				if left := reference(db, st.where); left != 0 {
					t.Fatalf("workers=%d delete where %s: %d matching rows left", workers, st.where, left)
				}
			}
			if i == 0 {
				if err := db.Insert("t", kernelEquivBatch(7300, 700, rand.New(rand.NewSource(12)))); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := db.Query("select * from t order by id")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := replay(1), replay(4)
	if err := relEqual(serial, parallel); err != nil {
		t.Fatalf("DML at 1 and 4 workers leaves different tables: %v", err)
	}
}

// TestKernelWarmScanAllocs is the allocation-regression guard for the pooled
// scan scratch: a warm cache-hit point query on a serial-scan database must
// stay within a small constant allocation budget — if a per-row or per-block
// allocation sneaks back into the hot path this fails loudly.
func TestKernelWarmScanAllocs(t *testing.T) {
	db := predcache.Open(predcache.WithSlices(2), predcache.WithMaxWorkers(1))
	schema := predcache.Schema{
		{Name: "id", Type: predcache.Int64},
		{Name: "val", Type: predcache.Int64},
	}
	if err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	batch := predcache.NewBatch(schema)
	for i := 0; i < 40000; i++ {
		batch.Cols[0].Ints = append(batch.Cols[0].Ints, int64(i))
		batch.Cols[1].Ints = append(batch.Cols[1].Ints, int64(i%97))
	}
	batch.N = 40000
	if err := db.Insert("t", batch); err != nil {
		t.Fatal(err)
	}
	const q = "select id, val from t where id = 31234"
	node, err := db.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache and the scratch pool.
	for i := 0; i < 3; i++ {
		if _, err := db.Run(node); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		res, err := db.Run(node)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 1 {
			t.Fatalf("rows = %d, want 1", res.NumRows())
		}
	})
	t.Logf("warm point query: %.1f allocs/op", avg)
	// Measured ~37 allocs on a warm run (plan-node bookkeeping, the result
	// relation, stats snapshot); the bound leaves headroom without letting a
	// per-block regression (40 blocks/slice here) through.
	if avg > 60 {
		t.Fatalf("warm point query allocates %.1f allocs/op, budget 60", avg)
	}
	st := db.LastQueryStats()
	if st.CacheHits == 0 {
		t.Fatalf("alloc guard did not exercise the cache-hit path: %+v", st)
	}
}

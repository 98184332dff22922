package predcache_test

import (
	"fmt"
	"math/rand"
	"testing"

	predcache "github.com/predcache/predcache"
	"github.com/predcache/predcache/internal/engine"
)

// kernelEquivDB builds a table whose columns hit every block encoding: a
// sorted key (FOR), a low-cardinality group (RLE-coded dictionary), a float
// measure (raw), a skewed run-heavy int (RLE) and a wide random int (raw).
func kernelEquivDB(t *testing.T, rows int, seed int64) *predcache.DB {
	t.Helper()
	db := predcache.Open(predcache.WithSlices(3))
	schema := predcache.Schema{
		{Name: "id", Type: predcache.Int64},
		{Name: "grp", Type: predcache.String},
		{Name: "val", Type: predcache.Float64},
		{Name: "runs", Type: predcache.Int64},
		{Name: "wide", Type: predcache.Int64},
	}
	if err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	batch := predcache.NewBatch(schema)
	for i := 0; i < rows; i++ {
		batch.Cols[0].Ints = append(batch.Cols[0].Ints, int64(i))
		batch.Cols[1].Strings = append(batch.Cols[1].Strings, fmt.Sprintf("g%02d", i%5))
		batch.Cols[2].Floats = append(batch.Cols[2].Floats, float64(i%250)/3)
		batch.Cols[3].Ints = append(batch.Cols[3].Ints, int64((i/400)%9)*1e12)
		batch.Cols[4].Ints = append(batch.Cols[4].Ints, int64(r.Uint64()))
	}
	batch.N = rows
	if err := db.Insert("t", batch); err != nil {
		t.Fatal(err)
	}
	return db
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

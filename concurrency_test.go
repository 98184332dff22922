package predcache_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	predcache "github.com/predcache/predcache"
)

// TestConcurrentQueriesAndDML hammers one database with parallel readers
// and writers. Run with -race: it exercises the scan-lock ordering (cache
// bookkeeping must never nest inside the table read lock) and dictionary
// snapshotting during bind.
func TestConcurrentQueriesAndDML(t *testing.T) {
	db := openWithData(t, 20000)
	queries := []string{
		"select count(*) from t where val >= 90",
		"select grp, sum(val) from t where day between 20050 and 20100 group by grp",
		"select count(*) from t where grp = 'b' and val < 10",
		"select max(val) from t where grp like '%a%'",
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)

	// Readers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if _, err := db.Query(queries[(w+i)%len(queries)]); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", w, err)
					return
				}
			}
		}(w)
	}

	// Writer: inserts batches with fresh dictionary values (grows dicts
	// concurrently with binding readers).
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 20; i++ {
			batch := predcache.NewBatch(predcache.Schema{
				{Name: "id", Type: predcache.Int64},
				{Name: "grp", Type: predcache.String},
				{Name: "val", Type: predcache.Float64},
				{Name: "day", Type: predcache.Date},
			})
			for j := 0; j < 500; j++ {
				batch.Cols[0].Ints = append(batch.Cols[0].Ints, int64(100000+i*500+j))
				batch.Cols[1].Strings = append(batch.Cols[1].Strings, fmt.Sprintf("g-%d-%d", i, r.Intn(3)))
				batch.Cols[2].Floats = append(batch.Cols[2].Floats, float64(r.Intn(100)))
				batch.Cols[3].Ints = append(batch.Cols[3].Ints, int64(20000+r.Intn(365)))
			}
			batch.N = 500
			if err := db.Insert("t", batch); err != nil {
				errCh <- err
				return
			}
		}
	}()

	// Deleter + vacuumer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			pred, err := predcache.ParseWhere(fmt.Sprintf("val = %d", i))
			if err != nil {
				errCh <- err
				return
			}
			if _, err := db.DeleteWhere("t", pred); err != nil {
				errCh <- err
				return
			}
			if i%4 == 3 {
				if err := db.Vacuum("t"); err != nil {
					errCh <- err
					return
				}
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The database must still answer correctly after the storm.
	res, err := db.Query("select count(*) from t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Col(0).Ints[0] == 0 {
		t.Fatal("all rows vanished")
	}
}

// TestRaceStressParallelOperators hammers the morsel-parallel join and
// aggregation paths under -race: multiple worker goroutines per query share
// bound predicate trees, column vectors and the morsel-scratch pool while
// writers append fresh dictionary values, delete rows and vacuum. Run with
// -race.
func TestRaceStressParallelOperators(t *testing.T) {
	db := predcache.Open(
		predcache.WithSlices(2),
		predcache.WithMaxWorkers(4),
	)
	factSchema := predcache.Schema{
		{Name: "id", Type: predcache.Int64},
		{Name: "dim_id", Type: predcache.Int64},
		{Name: "grp", Type: predcache.String},
		{Name: "val", Type: predcache.Float64},
	}
	dimSchema := predcache.Schema{
		{Name: "d_id", Type: predcache.Int64},
		{Name: "d_cat", Type: predcache.String},
	}
	if err := db.CreateTable("fact", factSchema); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("dim", dimSchema); err != nil {
		t.Fatal(err)
	}
	const rows, dims = 20000, 64
	fb := predcache.NewBatch(factSchema)
	for i := 0; i < rows; i++ {
		fb.Cols[0].Ints = append(fb.Cols[0].Ints, int64(i))
		fb.Cols[1].Ints = append(fb.Cols[1].Ints, int64(i%dims))
		fb.Cols[2].Strings = append(fb.Cols[2].Strings, []string{"a", "b", "c", "d"}[i%4])
		fb.Cols[3].Floats = append(fb.Cols[3].Floats, float64(i%1000)/10)
	}
	fb.N = rows
	if err := db.Insert("fact", fb); err != nil {
		t.Fatal(err)
	}
	dbch := predcache.NewBatch(dimSchema)
	for i := 0; i < dims; i++ {
		dbch.Cols[0].Ints = append(dbch.Cols[0].Ints, int64(i))
		dbch.Cols[1].Strings = append(dbch.Cols[1].Strings, []string{"X", "Y", "Z"}[i%3])
	}
	dbch.N = dims
	if err := db.Insert("dim", dbch); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"select d_cat, count(*), sum(val) from fact, dim where dim_id = d_id group by d_cat",
		"select grp, count(*), min(val), max(val) from fact where val >= 20 group by grp",
		"select count(*), sum(val), avg(val) from fact, dim where dim_id = d_id and val < 80",
		"select grp, count(*) from fact where val >= 10 and val < 90 group by grp",
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := db.Query(queries[(w+i)%len(queries)]); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	// Writer: appends fact rows with fresh dictionary values.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(5))
		for i := 0; i < 12; i++ {
			b := predcache.NewBatch(factSchema)
			for j := 0; j < 500; j++ {
				b.Cols[0].Ints = append(b.Cols[0].Ints, int64(rows+i*500+j))
				b.Cols[1].Ints = append(b.Cols[1].Ints, int64(r.Intn(dims)))
				b.Cols[2].Strings = append(b.Cols[2].Strings, fmt.Sprintf("g-%d", r.Intn(6)))
				b.Cols[3].Floats = append(b.Cols[3].Floats, float64(r.Intn(1000))/10)
			}
			b.N = 500
			if err := db.Insert("fact", b); err != nil {
				errCh <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()
	// Deleter + vacuumer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			pred, err := predcache.ParseWhere(fmt.Sprintf("val = %d", i*9))
			if err != nil {
				errCh <- err
				return
			}
			if _, err := db.DeleteWhere("fact", pred); err != nil {
				errCh <- fmt.Errorf("deleter: %w", err)
				return
			}
			if i%3 == 2 {
				if err := db.Vacuum("fact"); err != nil {
					errCh <- fmt.Errorf("vacuum: %w", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	res, err := db.Query("select count(*) from fact, dim where dim_id = d_id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Col(0).Ints[0] == 0 {
		t.Fatal("join returned no rows after the storm")
	}
}

// TestRaceStressParallelScans drives the full concurrent surface at once with
// four scan workers per query: distinct predicates churn cache inserts, a
// tiny memory budget forces evictions, appends advance watermarks (Extend),
// deletes and vacuums invalidate layouts, and introspection walks the LRU —
// all while the scan workers read the slices. Run with -race; the
// workload is sized to stay well under 30s even with the race detector's
// slowdown.
func TestRaceStressParallelScans(t *testing.T) {
	db := predcache.Open(
		predcache.WithSlices(4),
		predcache.WithMaxWorkers(4),
		predcache.WithCacheConfig(predcache.CacheConfig{
			Kind:      predcache.RangeIndex,
			MaxRanges: 128,
			MemBudget: 16 << 10, // a few entries at most: constant evictions
		}),
	)
	schema := predcache.Schema{
		{Name: "id", Type: predcache.Int64},
		{Name: "grp", Type: predcache.String},
		{Name: "val", Type: predcache.Float64},
		{Name: "day", Type: predcache.Date},
	}
	if err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	seed := predcache.NewBatch(schema)
	const rows = 12000
	for i := 0; i < rows; i++ {
		seed.Cols[0].Ints = append(seed.Cols[0].Ints, int64(i))
		seed.Cols[1].Strings = append(seed.Cols[1].Strings, []string{"a", "b", "c"}[i%3])
		seed.Cols[2].Floats = append(seed.Cols[2].Floats, float64(i%100))
		seed.Cols[3].Ints = append(seed.Cols[3].Ints, int64(20000+i%365))
	}
	seed.N = rows
	if err := db.Insert("t", seed); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)

	// Scanners: every iteration uses a different predicate, so each one is a
	// cache miss + insert, and the small budget evicts the tail immediately.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := fmt.Sprintf("select count(*) from t where val >= %d", (w*40+i)%100)
				if _, err := db.Query(q); err != nil {
					errCh <- fmt.Errorf("scanner %d: %w", w, err)
					return
				}
			}
		}(w)
	}

	// Repeater: hammers one fixed predicate so appends exercise the Extend
	// path (hit below the new watermark, tail scan, merge back).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 80; i++ {
			if _, err := db.Query("select count(*) from t where val >= 90"); err != nil {
				errCh <- fmt.Errorf("repeater: %w", err)
				return
			}
		}
	}()

	// Appender: grows the table (and the dictionaries) under the scans.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 15; i++ {
			b := predcache.NewBatch(schema)
			for j := 0; j < 400; j++ {
				b.Cols[0].Ints = append(b.Cols[0].Ints, int64(rows+i*400+j))
				b.Cols[1].Strings = append(b.Cols[1].Strings, fmt.Sprintf("n-%d", r.Intn(8)))
				b.Cols[2].Floats = append(b.Cols[2].Floats, float64(r.Intn(100)))
				b.Cols[3].Ints = append(b.Cols[3].Ints, int64(20000+r.Intn(365)))
			}
			b.N = 400
			if err := db.Insert("t", b); err != nil {
				errCh <- fmt.Errorf("appender: %w", err)
				return
			}
		}
	}()

	// Deleter + vacuumer: shrinks visibility and periodically rewrites the
	// physical layout, invalidating every cached entry for the table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			pred, err := predcache.ParseWhere(fmt.Sprintf("val = %d", i*7))
			if err != nil {
				errCh <- err
				return
			}
			if _, err := db.DeleteWhere("t", pred); err != nil {
				errCh <- fmt.Errorf("deleter: %w", err)
				return
			}
			if i%3 == 2 {
				if err := db.Vacuum("t"); err != nil {
					errCh <- fmt.Errorf("vacuum: %w", err)
					return
				}
			}
		}
	}()

	// Introspector: walks the cache LRU and counters while everything churns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			_ = db.PredicateCache().Entries()
			_ = db.CacheStats()
			_ = db.LastQueryStats()
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	res, err := db.Query("select count(*) from t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Col(0).Ints[0] == 0 {
		t.Fatal("all rows vanished")
	}
	if s := db.CacheStats(); s.Inserts == 0 || s.Evictions == 0 {
		t.Fatalf("stress did not exercise the cache: %+v", s)
	}
}

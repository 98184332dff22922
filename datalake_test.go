package predcache_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	predcache "github.com/predcache/predcache"
)

// §4.5 of the paper: a predicate cache can index an open table format
// (Iceberg/Delta) when row identity is stable, layout changes are rare and
// layout changes can be detected. A lake table here is one engine table
// whose rows carry the id of the data file they were committed in:
// committing a file is an Insert of one batch, dropping files is a
// DeleteWhere on file_id, and compaction is a Vacuum. Per-file footer
// statistics are the file_id column's block zone maps.

var lakeSchema = predcache.Schema{
	{Name: "file_id", Type: predcache.Int64},
	{Name: "k", Type: predcache.Int64},
	{Name: "city", Type: predcache.String},
	{Name: "v", Type: predcache.Float64},
}

// lakeFile builds data file id: rows rows of one city, k numbering them
// within the file and v drawn by v(i).
func lakeFile(id, rows int, city string, v func(i int) float64) *predcache.Batch {
	b := predcache.NewBatch(lakeSchema)
	for i := 0; i < rows; i++ {
		b.Cols[0].Ints = append(b.Cols[0].Ints, int64(id))
		b.Cols[1].Ints = append(b.Cols[1].Ints, int64(i))
		b.Cols[2].Strings = append(b.Cols[2].Strings, city)
		b.Cols[3].Floats = append(b.Cols[3].Floats, v(i))
	}
	b.N = rows
	return b
}

func openLake(t *testing.T, opts ...predcache.Option) *predcache.DB {
	t.Helper()
	db := predcache.Open(append([]predcache.Option{predcache.WithSlices(2)}, opts...)...)
	if err := db.CreateTable("lt", lakeSchema); err != nil {
		t.Fatal(err)
	}
	return db
}

func dropFiles(t *testing.T, db *predcache.DB, ids ...int) int {
	t.Helper()
	list := make([]string, len(ids))
	for i, id := range ids {
		list[i] = fmt.Sprint(id)
	}
	n, err := db.DeleteWhere("lt", mustPred(t, "file_id in ("+strings.Join(list, ", ")+")"))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestOpenTableFormat checks the three §4.5 properties as exact counts: an
// appended file extends the entry, a dropped file invalidates nothing and
// the next lookup hits without returning its rows, and a compaction
// invalidates.
func TestOpenTableFormat(t *testing.T) {
	for _, tc := range []struct {
		kind predcache.CacheConfig
		// rows scanned by the warm query at each step: warm, after the
		// append, after the drop, re-warmed after the compaction
		warm [4]int64
	}{
		{predcache.CacheConfig{Kind: predcache.RangeIndex}, [4]int64{200, 1200, 250, 150}},
		// Every 1,000-row bitmap block holds a qualifying row, so the bitmap
		// entry prunes nothing on this data.
		{predcache.CacheConfig{Kind: predcache.BitmapIndex}, [4]int64{4000, 5000, 5000, 3000}},
	} {
		t.Run(tc.kind.Kind.String(), func(t *testing.T) {
			db := openLake(t, predcache.WithCacheConfig(tc.kind))
			every100 := func(i int) float64 { return float64(i % 100) }
			for id := 1; id <= 4; id++ {
				if err := db.Insert("lt", lakeFile(id, 1000, "berlin", every100)); err != nil {
					t.Fatal(err)
				}
			}
			const q = "select file_id, count(*) as n from lt where v >= 95 group by file_id order by file_id"
			// step runs q and checks the rows it scanned, whether it hit and
			// the qualifying rows per file.
			step := func(label string, scanned int64, hit bool, files ...int64) {
				t.Helper()
				res := one(t, db, q)
				st := db.LastQueryStats()
				if st.RowsScanned != scanned || (st.CacheHits == 1) != hit {
					t.Fatalf("%s: scanned %d hit %v, want %d %v", label, st.RowsScanned, st.CacheHits == 1, scanned, hit)
				}
				if got := res.ColByName("file_id").Ints; !slices.Equal(got, files) {
					t.Fatalf("%s: files %v, want %v", label, got, files)
				}
				for i, n := range res.ColByName("n").Ints {
					if n != 50 {
						t.Fatalf("%s: file %d has %d qualifying rows, want 50", label, files[i], n)
					}
				}
			}
			stats := func(label string, want predcache.CacheStats) {
				t.Helper()
				got := db.CacheStats()
				got.Entries, got.MemBytes = 0, 0
				if got != want {
					t.Fatalf("%s: cache stats %+v, want %+v", label, got, want)
				}
			}

			step("cold", 4000, false, 1, 2, 3, 4)
			step("warm", tc.warm[0], true, 1, 2, 3, 4)
			stats("warm", predcache.CacheStats{Hits: 1, Misses: 1, Inserts: 1})

			// (a) Another writer commits a file: the entry is extended over
			// the new rows, nothing is invalidated.
			if err := db.Insert("lt", lakeFile(5, 1000, "berlin", every100)); err != nil {
				t.Fatal(err)
			}
			step("append", tc.warm[1], true, 1, 2, 3, 4, 5)
			stats("append", predcache.CacheStats{Hits: 2, Misses: 1, Inserts: 1, Extends: 1})

			// (b) Retention drops two files: a bulk delete leaves row
			// numbers, so the entry stays valid and visibility hides the
			// dropped rows.
			if n := dropFiles(t, db, 1, 2); n != 2000 {
				t.Fatalf("dropped %d rows, want 2000", n)
			}
			stats("drop", predcache.CacheStats{Hits: 2, Misses: 1, Inserts: 1, Extends: 1})
			step("drop", tc.warm[2], true, 3, 4, 5)
			stats("after drop", predcache.CacheStats{Hits: 3, Misses: 1, Inserts: 1, Extends: 1})

			// (c) Compaction rewrites the files: the layout epoch moves and
			// the entry is dropped.
			if err := db.Vacuum("lt"); err != nil {
				t.Fatal(err)
			}
			stats("compaction", predcache.CacheStats{Hits: 3, Misses: 1, Inserts: 1, Extends: 1, Invalidations: 1})
			step("compacted", 3000, false, 3, 4, 5)
			step("re-warmed", tc.warm[3], true, 3, 4, 5)
		})
	}
}

// TestOpenTableFormatFilePruning checks that per-file footer statistics are
// the file_id column's zone maps: a file lookup reads only the blocks of the
// files it names, before and after a drop and a compaction, and without a
// predicate cache.
func TestOpenTableFormatFilePruning(t *testing.T) {
	db := openLake(t, predcache.WithoutPredicateCache())
	for id := 1; id <= 4; id++ {
		if err := db.Insert("lt", lakeFile(id, 1000, "berlin", func(i int) float64 { return float64(i) })); err != nil {
			t.Fatal(err)
		}
	}
	lookup := func(label, where string, rows, scanned, skipped int64) {
		t.Helper()
		res := one(t, db, "select count(*) as n from lt where "+where)
		st := db.LastQueryStats()
		if n := res.ColByName("n").Ints[0]; n != rows || st.RowsScanned != scanned || st.BlocksSkipped != skipped {
			t.Fatalf("%s: %d rows, scanned %d, %d blocks skipped by zone maps; want %d, %d, %d",
				label, n, st.RowsScanned, st.BlocksSkipped, rows, scanned, skipped)
		}
	}
	lookup("one file", "file_id = 4", 1000, 1000, 3)
	lookup("file range", "file_id >= 3", 2000, 2000, 2)
	lookup("file and value", "file_id = 2 and v < 10", 10, 1000, 3)
	lookup("no such file", "file_id = 9", 0, 0, 4)

	// A dropped file's rows are invisible but keep their block until the
	// compaction rewrites the table.
	if n := dropFiles(t, db, 1, 2); n != 2000 {
		t.Fatalf("dropped %d rows, want 2000", n)
	}
	lookup("dropped file", "file_id = 1", 0, 1000, 3)
	lookup("kept file", "file_id = 4", 1000, 1000, 3)
	if err := db.Vacuum("lt"); err != nil {
		t.Fatal(err)
	}
	lookup("compacted", "file_id = 4", 1000, 1000, 1)
	lookup("compacted, dropped file", "file_id = 1", 0, 0, 2)
}

// TestOpenTableFormatChurn drives a seeded stream of file commits, drops
// and compactions and holds every cached query to a twin without a
// predicate cache fed the same files.
func TestOpenTableFormatChurn(t *testing.T) {
	preds := []string{
		"v > 80",
		"city = 'munich'",
		"city = 'berlin' and v < 10",
	}
	cities := []string{"berlin", "munich"}
	for _, cfg := range []predcache.CacheConfig{
		{Kind: predcache.RangeIndex, MaxRanges: 16},
		{Kind: predcache.BitmapIndex, RowsPerBlock: 64},
	} {
		t.Run(cfg.Kind.String(), func(t *testing.T) {
			db := openLake(t, predcache.WithCacheConfig(cfg))
			twin := openLake(t, predcache.WithoutPredicateCache())
			r := rand.New(rand.NewSource(6))
			var live []int
			nextID := 1
			for step := 0; step < 60; step++ {
				switch op := r.Intn(10); {
				case op < 6 || len(live) == 0: // commit a file
					rows := 50 + r.Intn(150)
					vals := make([]float64, rows)
					for i := range vals {
						vals[i] = float64(r.Intn(1000)) / 10
					}
					b := lakeFile(nextID, rows, cities[r.Intn(len(cities))], func(i int) float64 { return vals[i] })
					for _, d := range []*predcache.DB{db, twin} {
						if err := d.Insert("lt", b); err != nil {
							t.Fatal(err)
						}
					}
					live = append(live, nextID)
					nextID++
				case op < 9: // drop up to two files
					r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
					n := min(len(live), 1+r.Intn(2))
					if got, want := dropFiles(t, db, live[:n]...), dropFiles(t, twin, live[:n]...); got != want {
						t.Fatalf("step %d: dropped %d rows, twin %d", step, got, want)
					}
					live = live[n:]
				default: // compaction
					for _, d := range []*predcache.DB{db, twin} {
						if err := d.Vacuum("lt"); err != nil {
							t.Fatal(err)
						}
					}
				}
				p := preds[r.Intn(len(preds))]
				q := "select file_id, k from lt where " + p + " order by file_id, k"
				got, want := one(t, db, q), one(t, twin, q)
				for _, col := range []string{"file_id", "k"} {
					if !slices.Equal(got.ColByName(col).Ints, want.ColByName(col).Ints) {
						t.Fatalf("step %d (%s): %s differs from the twin", step, p, col)
					}
				}
			}
			st := db.CacheStats()
			if st.Hits == 0 || st.Extends == 0 || st.Invalidations == 0 {
				t.Fatalf("churn did not exercise the cache: %+v", st)
			}
		})
	}
}

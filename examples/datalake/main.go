// Datalake: §4.5 of the paper — predicate caching over an open table
// format. In an Iceberg/Delta-style lake the warehouse does not own the
// physical layout: ingest jobs commit immutable data files, retention jobs
// drop old ones and compaction jobs rewrite them. The predicate cache needs
// none of that ownership; it only requires (a) stable row identity between
// changes, (b) infrequent layout changes, and (c) detectable layout changes.
//
// This example models the lake as one table whose rows carry the id of the
// data file they were committed in. Committing a file is an Insert of one
// batch: the cache entry is extended over the new rows through its
// watermarks. Dropping files is a DELETE on file_id: rows keep their
// numbers, so nothing is invalidated and MVCC visibility hides the dropped
// rows. A compaction is a Vacuum: the layout epoch moves and the entry is
// invalidated. Per-file footer statistics are the file_id column's block
// zone maps.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	predcache "github.com/predcache/predcache"
)

var schema = predcache.Schema{
	{Name: "file_id", Type: predcache.Int64},
	{Name: "trip_id", Type: predcache.Int64},
	{Name: "city", Type: predcache.String},
	{Name: "distance_km", Type: predcache.Float64},
	{Name: "day", Type: predcache.Date},
}

const fileRows = 50_000

// dataFile builds one committed data file: lake writers partition output by
// city, so each file covers a single city (clustered layout, as produced by
// Glue/Spark jobs writing partitioned Parquet).
func dataFile(id int, r *rand.Rand) *predcache.Batch {
	cities := []string{"berlin", "munich", "hamburg", "cologne"}
	city := cities[id%len(cities)]
	b := predcache.NewBatch(schema)
	for i := 0; i < fileRows; i++ {
		b.Cols[0].Ints = append(b.Cols[0].Ints, int64(id))
		b.Cols[1].Ints = append(b.Cols[1].Ints, int64(id*fileRows+i))
		b.Cols[2].Strings = append(b.Cols[2].Strings, city)
		b.Cols[3].Floats = append(b.Cols[3].Floats, float64(r.Intn(4000))/100)
		b.Cols[4].Ints = append(b.Cols[4].Ints, int64(20200+id))
	}
	b.N = fileRows
	return b
}

func main() {
	// Range entries keep per-row precision: partition pruning (zone maps on
	// the clustered city column) already skips other cities' files; the
	// predicate cache then refines to the qualifying rows *within* the
	// matching files — the part min/max file statistics cannot do.
	db := predcache.Open(predcache.WithCacheConfig(
		predcache.CacheConfig{Kind: predcache.RangeIndex, MaxRanges: 16384}))
	if err := db.CreateTable("trips", schema); err != nil {
		log.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	nextFile := 0
	commit := func(files int) {
		for end := nextFile + files; nextFile < end; nextFile++ {
			if err := db.Insert("trips", dataFile(nextFile, r)); err != nil {
				log.Fatal(err)
			}
		}
	}

	query := `select count(*) as n, avg(distance_km) as avg_km
	          from trips where city = 'munich' and distance_km > 39`
	report := func(label string) {
		res, err := db.Query(query)
		if err != nil {
			log.Fatal(err)
		}
		st := db.LastQueryStats()
		cs := db.CacheStats()
		fmt.Printf("%-32s rows=%5d | scanned %7d | hits %d | extends %d | invalidations %d\n",
			label, res.ColByName("n").Ints[0], st.RowsScanned, cs.Hits, cs.Extends, cs.Invalidations)
	}

	commit(16)
	report("initial snapshot (16 files)")
	report("repeat (cache warm)")

	// Another engine commits four more files; the cache entry stays valid —
	// only the new tail is scanned and merged in.
	commit(4)
	report("after 4 appended files")
	report("repeat")

	// Retention drops the six oldest files: a delete leaves row numbers
	// alone, so the entry stays valid and the next lookup is a hit.
	ids := make([]string, 6)
	for i := range ids {
		ids[i] = fmt.Sprint(i)
	}
	retention, err := predcache.ParseWhere("file_id in (" + strings.Join(ids, ", ") + ")")
	if err != nil {
		log.Fatal(err)
	}
	dropped, err := db.DeleteWhere("trips", retention)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("-- retention dropped files 0-5 (%d rows) --\n", dropped)
	report("after retention drop")

	// A compaction job rewrites the files: row identity changes, which the
	// cache detects via the layout epoch and drops its entries.
	if err := db.Vacuum("trips"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- compaction rewrote the data files (layout epoch bumped) --")
	report("after compaction (must rescan)")
	report("re-warmed on the new layout")
}

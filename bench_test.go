package predcache_test

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	predcache "github.com/predcache/predcache"
	"github.com/predcache/predcache/internal/bench"
	"github.com/predcache/predcache/internal/workload"
)

// benchExperiment runs one harness experiment per iteration at the fast
// scale; `go test -bench .` therefore regenerates every table and figure of
// the paper (use cmd/pcbench for the full-scale runs).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := bench.FastConfig()
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(cfg, io.Discard)
		if err := r.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper table/figure ---

func BenchmarkTable1Criteria(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkFig1QueryRepetition(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFig2StatementMix(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkTable2Statements(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkFig3ReadWrite(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig4QueryVsScan(b *testing.B)     { benchExperiment(b, "fig4") }
func BenchmarkFig5BySize(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig6ResultCache(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7HitVsUpdate(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkTable3Memory(b *testing.B)        { benchExperiment(b, "table3") }
func BenchmarkFig13WorkloadA(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFig14WorkloadB(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkFig15BuildOverhead(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkTable4TPCHSkewed(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkFig16SemiJoinKeys(b *testing.B)   { benchExperiment(b, "fig16") }
func BenchmarkFig17EndToEnd(b *testing.B)       { benchExperiment(b, "fig17") }
func BenchmarkFig18SortingPlusPC(b *testing.B)  { benchExperiment(b, "fig18") }

// --- micro-benchmarks of the hot paths ---

// benchDB builds a clustered single-table database for scan benchmarks.
func benchDB(b *testing.B, rows int) *predcache.DB {
	b.Helper()
	db := predcache.Open()
	schema := predcache.Schema{
		{Name: "id", Type: predcache.Int64},
		{Name: "grp", Type: predcache.String},
		{Name: "val", Type: predcache.Float64},
	}
	if err := db.CreateTable("t", schema); err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	batch := predcache.NewBatch(schema)
	for i := 0; i < rows; i++ {
		batch.Cols[0].Ints = append(batch.Cols[0].Ints, int64(i))
		batch.Cols[1].Strings = append(batch.Cols[1].Strings, fmt.Sprintf("g%02d", (i/4000)%25))
		batch.Cols[2].Floats = append(batch.Cols[2].Floats, float64(r.Intn(10000))/100)
	}
	batch.N = rows
	if err := db.Insert("t", batch); err != nil {
		b.Fatal(err)
	}
	return db
}

const microQuery = "select count(*) as n from t where grp = 'g07' and val > 50"

func BenchmarkScanCold(b *testing.B) {
	db := benchDB(b, 400000)
	plan, err := db.Plan(microQuery)
	if err != nil {
		b.Fatal(err)
	}
	cold := predcache.Open(predcache.WithoutPredicateCache())
	_ = cold
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.PredicateCache().Clear()
		if _, err := db.Run(plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanWarm(b *testing.B) {
	db := benchDB(b, 400000)
	plan, err := db.Plan(microQuery)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Run(plan); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Run(plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanNoCache(b *testing.B) {
	db := predcache.Open(predcache.WithoutPredicateCache())
	schema := predcache.Schema{
		{Name: "id", Type: predcache.Int64},
		{Name: "grp", Type: predcache.String},
		{Name: "val", Type: predcache.Float64},
	}
	if err := db.CreateTable("t", schema); err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	batch := predcache.NewBatch(schema)
	for i := 0; i < 400000; i++ {
		batch.Cols[0].Ints = append(batch.Cols[0].Ints, int64(i))
		batch.Cols[1].Strings = append(batch.Cols[1].Strings, fmt.Sprintf("g%02d", (i/4000)%25))
		batch.Cols[2].Floats = append(batch.Cols[2].Floats, float64(r.Intn(10000))/100)
	}
	batch.N = 400000
	if err := db.Insert("t", batch); err != nil {
		b.Fatal(err)
	}
	plan, err := db.Plan(microQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Run(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDML times DeleteWhere and UpdateWhere on the mixed_dml table
// shape: 32,000 events rows (workload.SetupDB), 160-row id-range deletes and
// 60-row id-range updates. Each statement takes the next id window, so it
// matches all of that window's rows; once every window has been taken the
// table is built again off the clock, which bounds its physical size
// without a vacuum.
func BenchmarkDML(b *testing.B) {
	const rows = 32_000
	bumpQty := func(bt *predcache.Batch) {
		for i := range bt.Cols[3].Ints {
			bt.Cols[3].Ints[i]++
		}
	}
	for _, bc := range []struct {
		name  string
		width int
	}{{"delete", 160}, {"update", 60}} {
		b.Run(bc.name, func(b *testing.B) {
			var db *predcache.DB
			windows := rows / bc.width
			for i := 0; i < b.N; i++ {
				if i%windows == 0 {
					b.StopTimer()
					var err error
					if db, err = workload.SetupDB(rows, 1); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				lo := (i % windows) * bc.width
				pred, err := predcache.ParseWhere(fmt.Sprintf("id between %d and %d", lo, lo+bc.width-1))
				if err != nil {
					b.Fatal(err)
				}
				var n int
				if bc.name == "delete" {
					n, err = db.DeleteWhere("events", pred)
				} else {
					n, err = db.UpdateWhere("events", pred, bumpQty)
				}
				if err != nil || n != bc.width {
					b.Fatalf("%s of ids %d..%d touched %d rows: %v", bc.name, lo, lo+bc.width-1, n, err)
				}
			}
		})
	}
}

// Ablation: range granularity sweep — how maxRanges trades memory for
// precision (DESIGN.md §5).
func BenchmarkRangeGranularity(b *testing.B) {
	for _, maxRanges := range []int{16, 256, 4096, 16384} {
		b.Run(fmt.Sprintf("maxRanges=%d", maxRanges), func(b *testing.B) {
			db := predcache.Open(predcache.WithCacheConfig(
				predcache.CacheConfig{Kind: predcache.RangeIndex, MaxRanges: maxRanges}))
			seedBench(b, db)
			plan, err := db.Plan(microQuery)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.Run(plan); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Run(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: bitmap granularity sweep (rows per block).
func BenchmarkBitmapGranularity(b *testing.B) {
	for _, rpb := range []int{250, 1000, 4000, 16000} {
		b.Run(fmt.Sprintf("rowsPerBlock=%d", rpb), func(b *testing.B) {
			db := predcache.Open(predcache.WithCacheConfig(
				predcache.CacheConfig{Kind: predcache.BitmapIndex, RowsPerBlock: rpb}))
			seedBench(b, db)
			plan, err := db.Plan(microQuery)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.Run(plan); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Run(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func seedBench(b *testing.B, db *predcache.DB) {
	b.Helper()
	schema := predcache.Schema{
		{Name: "id", Type: predcache.Int64},
		{Name: "grp", Type: predcache.String},
		{Name: "val", Type: predcache.Float64},
	}
	if err := db.CreateTable("t", schema); err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	batch := predcache.NewBatch(schema)
	for i := 0; i < 200000; i++ {
		batch.Cols[0].Ints = append(batch.Cols[0].Ints, int64(i))
		batch.Cols[1].Strings = append(batch.Cols[1].Strings, fmt.Sprintf("g%02d", (i/4000)%25))
		batch.Cols[2].Floats = append(batch.Cols[2].Floats, float64(r.Intn(10000))/100)
	}
	batch.N = 200000
	if err := db.Insert("t", batch); err != nil {
		b.Fatal(err)
	}
}

// Ablation: cost-based admission (DESIGN.md §5) — AdmitAfter avoids paying
// entry memory for one-off scans, MaxSelectivity refuses unselective ones.
func BenchmarkAdmissionPolicy(b *testing.B) {
	for _, cfg := range []struct {
		name string
		c    predcache.CacheConfig
	}{
		{"always", predcache.CacheConfig{Kind: predcache.BitmapIndex}},
		{"admitAfter2", predcache.CacheConfig{Kind: predcache.BitmapIndex, AdmitAfter: 2}},
		{"maxSel50", predcache.CacheConfig{Kind: predcache.BitmapIndex, MaxSelectivity: 0.5}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			db := predcache.Open(predcache.WithCacheConfig(cfg.c))
			seedBench(b, db)
			// A mixed stream: one hot query, many one-off queries.
			hot, err := db.Plan(microQuery)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				oneOff, err := db.Plan(fmt.Sprintf(
					"select count(*) from t where val > %d", i%100))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := db.Run(oneOff); err != nil {
					b.Fatal(err)
				}
				if _, err := db.Run(hot); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(db.CacheStats().MemBytes), "cacheBytes")
		})
	}
}

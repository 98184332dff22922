// Command pcsh is an interactive SQL shell over a predcache database
// preloaded with a benchmark dataset.
//
// Usage:
//
//	pcsh [-dataset tpch|tpch-skewed|ssb|tpcds] [-sf 0.01] [-cache range|bitmap|off]
//	     [-slow 1s] [-log file]
//
// -slow sets the slow-query threshold (flagged in pc.query_log; traces at or
// over it are always retained). -log writes structured JSON log lines (slow
// queries, failures, vacuums) carrying query_id/trace_id to the given file
// ("-" for stderr). The shell serves no HTTP: the Prometheus endpoint and
// pprof are on pcserver -admin; here the telemetry is the meta commands and
// the pc.* tables below.
//
// Queries prefixed with EXPLAIN print the plan; EXPLAIN ANALYZE executes it
// and annotates each operator with wall time, cardinalities and per-scan
// cache outcomes.
//
// Meta commands inside the shell:
//
//	\stats          scan counters of the last query
//	\cache          predicate-cache counters
//	\entries        list predicate-cache entries
//	\log            recent queries from pc.query_log (newest first)
//	\storage        per-column storage breakdown from pc.table_storage
//	\trace [id]     list retained traces from pc.traces, or render trace id's span tree
//	\slo            latency percentiles per query class from pc.slo
//	\top            heaviest query shapes by attributed CPU from pc.query_shapes
//	\explain <sql>  show the plan without executing
//	\tables         list tables
//	\q              quit
//
// The same telemetry is SQL-queryable as system tables under the reserved
// pc schema: pc.query_log, pc.cache_entries, pc.cache_stats,
// pc.table_storage, pc.metrics, pc.traces, pc.trace_spans, pc.slo,
// pc.runtime, pc.query_shapes and pc.alerts all join against user tables —
// e.g. find the slowest retained trace's spans with
//
//	SELECT s.name, s.dur_us FROM pc.trace_spans s, pc.traces t
//	WHERE s.trace_id = t.trace_id AND t.reason = 'slow'
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	predcache "github.com/predcache/predcache"
	"github.com/predcache/predcache/internal/ssb"
	"github.com/predcache/predcache/internal/tpcds"
	"github.com/predcache/predcache/internal/tpch"
)

func main() {
	dataset := flag.String("dataset", "tpch-skewed", "dataset: tpch, tpch-skewed, ssb, tpcds")
	sf := flag.Float64("sf", 0.01, "scale factor")
	cacheKind := flag.String("cache", "bitmap", "predicate cache: range, bitmap, off")
	seed := flag.Int64("seed", 1, "generator seed")
	slow := flag.Duration("slow", 0, "slow-query threshold (0 keeps the default; traces at or over it are always retained)")
	logPath := flag.String("log", "", `write structured JSON log lines to this file ("-" for stderr); empty disables`)
	flag.Parse()

	var opts []predcache.Option
	if *slow > 0 {
		opts = append(opts, predcache.WithSlowQueryThreshold(*slow))
	}
	if *logPath != "" {
		w := os.Stderr
		if *logPath != "-" {
			f, err := os.Create(*logPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pcsh: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		opts = append(opts, predcache.WithLogger(predcache.NewJSONLogger(w, slog.LevelInfo)))
	}
	switch *cacheKind {
	case "off":
		opts = append(opts, predcache.WithoutPredicateCache())
	case "range":
		opts = append(opts, predcache.WithCacheConfig(predcache.CacheConfig{Kind: predcache.RangeIndex}))
	case "bitmap":
		opts = append(opts, predcache.WithCacheConfig(predcache.CacheConfig{Kind: predcache.BitmapIndex}))
	default:
		fmt.Fprintf(os.Stderr, "pcsh: unknown cache kind %q\n", *cacheKind)
		os.Exit(2)
	}
	db := predcache.Open(opts...)

	fmt.Printf("loading %s at SF %.3f...\n", *dataset, *sf)
	if err := load(db, *dataset, *sf, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "pcsh: %v\n", err)
		os.Exit(1)
	}
	for _, name := range db.Catalog().TableNames() {
		fmt.Printf("  %-12s %d rows\n", name, db.TableRows(name))
	}
	fmt.Println(`type SQL terminated by ';', or \q to quit`)

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() { fmt.Print("pc> ") }
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case `\q`, "exit", "quit":
			return
		case `\stats`:
			s := db.LastQueryStats()
			fmt.Printf("rows scanned %d | qualified %d | blocks accessed %d | pruned: zonemap %d cache %d | cache hits %d misses %d\n",
				s.RowsScanned, s.RowsQualified, s.BlocksAccessed, s.BlocksSkipped, s.BlocksPrunedCache, s.CacheHits, s.CacheMisses)
			prompt()
			continue
		case `\cache`:
			s := db.CacheStats()
			fmt.Printf("entries %d | mem %d B | hits %d | misses %d | inserts %d | extends %d | invalidations %d | evictions %d\n",
				s.Entries, s.MemBytes, s.Hits, s.Misses, s.Inserts, s.Extends, s.Invalidations, s.Evictions)
			prompt()
			continue
		case `\tables`:
			for _, name := range db.Catalog().TableNames() {
				fmt.Printf("%-12s %d rows\n", name, db.TableRows(name))
			}
			prompt()
			continue
		case `\entries`:
			for _, e := range db.CacheEntries() {
				kind := e.Kind.String()
				if e.SemiJoin {
					kind += "+sj"
				}
				fmt.Printf("%-10s %8d rows %8d B  %s\n", kind, e.EstRows, e.MemBytes, truncate(e.Key, 100))
			}
			prompt()
			continue
		case `\log`:
			runMeta(db, "select seq, query_text, wall_us, result_rows, cache_hits, cache_misses, slow from pc.query_log order by seq desc limit 20")
			prompt()
			continue
		case `\storage`:
			runMeta(db, "select table_name, column_name, column_type, result_rows, blocks, payload_bytes, zonemap_bytes, dict_bytes from pc.table_storage order by table_name")
			prompt()
			continue
		case `\trace`:
			runMeta(db, "select trace_id, query_class, cache_hit, reason, wall_us, spans, error, query_text from pc.traces order by trace_id desc limit 20")
			prompt()
			continue
		case `\slo`:
			runMeta(db, "select query_class, cache_outcome, sample_count, p50_us, p99_us, p999_us, max_us, exemplar_trace_id from pc.slo")
			prompt()
			continue
		case `\top`:
			runMeta(db, "select shape_id, calls, cpu_us, p99_cpu_us, allocs, cache_hit_rate, shape_text from pc.query_shapes order by cpu_us desc limit 20")
			prompt()
			continue
		}
		if rest, ok := strings.CutPrefix(trimmed, `\trace `); ok {
			id, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				fmt.Printf("error: \\trace wants a trace id: %v\n", err)
			} else if rt := db.TraceByID(id); rt == nil {
				fmt.Printf("trace %d is not retained (never kept, or evicted)\n", id)
			} else {
				fmt.Printf("trace %d: class=%s shape=%s reason=%s wall=%v cache_hit=%v\n",
					rt.Seq, rt.Class, rt.ShapeID, rt.Reason, rt.Wall(), rt.CacheHit)
				if rt.Error != "" {
					fmt.Printf("error: %s\n", rt.Error)
				}
				fmt.Print(predcache.RenderTrace(rt))
			}
			prompt()
			continue
		}
		if strings.HasPrefix(trimmed, `\explain `) {
			out, err := db.Explain(strings.TrimSuffix(strings.TrimPrefix(trimmed, `\explain `), ";"))
			if err != nil {
				fmt.Printf("error: %v\n", err)
			} else {
				fmt.Print(out)
			}
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if !strings.Contains(line, ";") {
			fmt.Print("  > ")
			continue
		}
		query := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(pending.String()), ";"))
		pending.Reset()
		if query != "" {
			start := time.Now()
			res, err := db.Query(query)
			elapsed := time.Since(start)
			if err != nil {
				fmt.Printf("error: %v\n", err)
			} else {
				fmt.Print(res.Format(40))
				fmt.Printf("(%d rows, %v)\n", res.NumRows(), elapsed.Round(time.Microsecond))
			}
		}
		prompt()
	}
}

// runMeta executes a canned system-table query for a meta command. The query
// itself runs through the normal path and therefore also lands in
// pc.query_log.
func runMeta(db *predcache.DB, query string) {
	res, err := db.Query(query)
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	fmt.Print(res.Format(40))
	fmt.Printf("(%d rows)\n", res.NumRows())
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func load(db *predcache.DB, dataset string, sf float64, seed int64) error {
	cat := db.Catalog()
	switch dataset {
	case "tpch":
		return tpch.Generate(tpch.Config{SF: sf, Seed: seed}).Load(cat, 4)
	case "tpch-skewed":
		return tpch.Generate(tpch.Config{SF: sf, Skewed: true, Seed: seed}).Load(cat, 4)
	case "ssb":
		return ssb.Generate(ssb.Config{SF: sf, Skewed: true, Seed: seed}).Load(cat, 4)
	case "tpcds":
		return tpcds.Generate(tpcds.Config{SF: sf, Skewed: true, Seed: seed}).Load(cat, 4)
	}
	return fmt.Errorf("unknown dataset %q", dataset)
}

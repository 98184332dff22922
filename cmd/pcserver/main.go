// Command pcserver serves a predcache database over TCP to many concurrent
// clients, preloaded with a benchmark dataset.
//
// Usage:
//
//	pcserver [-addr :5433] [-admin :8080] [-dataset tpch|tpch-skewed|ssb|tpcds]
//	         [-sf 0.01] [-seed 1] [-cache range|bitmap|off]
//	         [-max-concurrent N] [-max-queue N] [-slow 1s] [-log file]
//
// The wire protocol is newline-delimited text: send a SELECT (or EXPLAIN)
// statement per line, read back "ok <nrows> <ncols>", a TSV header, the
// rows, and a "." terminator — or "err <message>". Session commands:
// \prepare <name> <sql>, \exec <name>, \cancel (aborts the in-flight
// statement), \ping, \quit. Try it interactively with pcsh, the shell that
// also expands meta commands such as \stats and \top to SQL:
//
//	pcsh -addr 127.0.0.1:5433
//	select count(*) from lineitem where l_quantity < 10
//
// -admin serves /metrics (Prometheus text) and /debug/pprof/, whose CPU
// samples carry the query_id/shape/session labels. Everything else is
// SQL-queryable by any client: live sessions as pc.sessions, the plan cache
// as pc.plan_cache, per-shape resource attribution as pc.query_shapes, the
// registry itself as pc.metrics.
//
// SIGINT/SIGTERM drain gracefully: in-flight statements finish (up to the
// drain timeout), new ones are refused.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	predcache "github.com/predcache/predcache"
	"github.com/predcache/predcache/internal/server"
	"github.com/predcache/predcache/internal/ssb"
	"github.com/predcache/predcache/internal/tpcds"
	"github.com/predcache/predcache/internal/tpch"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5433", "SQL listen address")
	admin := flag.String("admin", "", "admin HTTP address (/metrics, /debug/pprof/); empty disables")
	dataset := flag.String("dataset", "tpch-skewed", "dataset: tpch, tpch-skewed, ssb, tpcds")
	sf := flag.Float64("sf", 0.01, "scale factor")
	seed := flag.Int64("seed", 1, "generator seed")
	cacheKind := flag.String("cache", "bitmap", "predicate cache: range, bitmap, off")
	maxConcurrent := flag.Int("max-concurrent", 0, "statements executing at once (0 = 2x GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "statements waiting for a slot before fast rejection (0 = 64x max-concurrent)")
	drain := flag.Duration("drain", 5*time.Second, "graceful shutdown drain timeout")
	slow := flag.Duration("slow", 0, "slow-query threshold (0 keeps the default)")
	logPath := flag.String("log", "", `write structured JSON log lines to this file ("-" for stderr); empty disables`)
	workers := flag.Int("workers", 0, "max workers per query, scans included (0 = GOMAXPROCS)")
	flag.Parse()

	var opts []predcache.Option
	var logger *slog.Logger
	if *slow > 0 {
		opts = append(opts, predcache.WithSlowQueryThreshold(*slow))
	}
	if *workers > 0 {
		opts = append(opts, predcache.WithMaxWorkers(*workers))
	}
	if *logPath != "" {
		w := os.Stderr
		if *logPath != "-" {
			f, err := os.Create(*logPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		logger = slog.New(slog.NewJSONHandler(w, nil))
		opts = append(opts, predcache.WithLogger(logger))
	}
	switch *cacheKind {
	case "off":
		opts = append(opts, predcache.WithoutPredicateCache())
	case "range":
		opts = append(opts, predcache.WithCacheConfig(predcache.CacheConfig{Kind: predcache.RangeIndex}))
	case "bitmap":
		opts = append(opts, predcache.WithCacheConfig(predcache.CacheConfig{Kind: predcache.BitmapIndex}))
	default:
		fmt.Fprintf(os.Stderr, "pcserver: unknown cache kind %q\n", *cacheKind)
		os.Exit(2)
	}
	db := predcache.Open(opts...)
	// Health sampling feeds pc.runtime, the leak sentinels (pc.alerts) and
	// the admin endpoint's predcache_runtime_* gauges for the life of the
	// server.
	db.StartRuntimeSampler(time.Second)

	fmt.Printf("loading %s at SF %.3f...\n", *dataset, *sf)
	if err := load(db, *dataset, *sf, *seed); err != nil {
		fatal(err)
	}
	for _, name := range db.Catalog().TableNames() {
		fmt.Printf("  %-12s %d rows\n", name, db.TableRows(name))
	}

	srv, err := server.New(db, server.Config{
		Addr:          *addr,
		AdminAddr:     *admin,
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		DrainTimeout:  *drain,
		Logger:        logger,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("listening on %s\n", srv.Addr())
	if a := srv.AdminAddr(); a != "" {
		fmt.Printf("admin on http://%s/metrics\n", a)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	case s := <-sig:
		fmt.Printf("%v: draining...\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drain+time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	st := srv.StatsNow()
	fmt.Printf("served %d statements over %d sessions (%d rejected, %d cancelled)\n",
		st.Statements, st.Accepted, st.Rejected, st.Cancelled)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pcserver: %v\n", err)
	os.Exit(1)
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

package sql_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	predcache "github.com/predcache/predcache"
	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/ssb"
	"github.com/predcache/predcache/internal/tpcds"
	"github.com/predcache/predcache/internal/tpch"
	"github.com/predcache/predcache/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/plans.golden")

const planGolden = "testdata/plans.golden"

// TestPlanGolden pins the plan, and with it the columns every scan decodes,
// of each SQL statement the benchmarks, workloads and pcsh send. Run with
// -update to rewrite the golden file after an intended plan change.
func TestPlanGolden(t *testing.T) {
	type corpus struct {
		name    string
		db      *predcache.DB
		queries []string
	}
	tdb := predcache.Open()
	if err := tpch.Generate(tpch.Config{SF: 0.002, Skewed: true, Seed: 7}).Load(tdb.Catalog(), 2); err != nil {
		t.Fatal(err)
	}
	sdb := predcache.Open()
	if err := ssb.Generate(ssb.Config{SF: 0.002, Seed: 7}).Load(sdb.Catalog(), 2); err != nil {
		t.Fatal(err)
	}
	ddb := predcache.Open()
	if err := tpcds.Generate(tpcds.Config{SF: 0.003, Seed: 7}).Load(ddb.Catalog(), 2); err != nil {
		t.Fatal(err)
	}
	wdb, err := workload.SetupDB(2000, 7)
	if err != nil {
		t.Fatal(err)
	}

	var tpchSQL []string
	params := []tpch.Params{tpch.DefaultParams()}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		var p tpch.Params
		p.Randomize(r)
		params = append(params, p)
	}
	for _, p := range params {
		for _, q := range tpch.Queries(p) {
			if q.SQL != "" {
				tpchSQL = append(tpchSQL, q.SQL)
			}
		}
	}
	var ssbSQL, dsSQL []string
	for _, q := range ssb.Queries() {
		ssbSQL = append(ssbSQL, q.SQL)
	}
	for _, q := range tpcds.Queries() {
		dsSQL = append(dsSQL, q.SQL)
	}
	// The queries pcsh's argument-free meta commands send.
	meta := []string{
		"select seq, rows_scanned, rows_qualified, blocks_accessed, blocks_pruned_zonemap, blocks_pruned_cache, cache_hits, cache_misses from pc.query_log order by seq desc limit 1",
		"select entries, mem_bytes, hits, misses, inserts, extends, invalidations, evictions from pc.cache_stats",
		"select kind, semijoin, est_rows, mem_bytes, hits, key from pc.cache_entries",
		"select seq, query_text, wall_us, result_rows, cache_hits, cache_misses, slow from pc.query_log order by seq desc limit 20",
		"select table_name, column_name, column_type, result_rows, blocks, payload_bytes, zonemap_bytes, dict_bytes from pc.table_storage order by table_name",
		"select trace_id, query_class, cache_hit, reason, wall_us, spans, error, query_text from pc.traces order by trace_id desc limit 20",
		"select query_class, cache_outcome, sample_count, p50_us, p99_us, p999_us, max_us, exemplar_trace_id from pc.slo",
		"select shape_id, calls, cpu_us, p99_cpu_us, allocs, cache_hit_rate, shape_text from pc.query_shapes order by cpu_us desc limit 20",
		"select table_name, count(*) as columns, max(result_rows) as result_rows from pc.table_storage group by table_name order by table_name",
		"select span_id, parent_id, kind, name, dur_us, attrs from pc.trace_spans where trace_id = 3 order by span_id",
	}
	edge := []string{
		"select count(*) from lineitem",
		"select count(*) from lineitem where l_quantity < 10",
		"select count(*) from orders, customer where o_custkey = c_custkey",
		"select count(*) from pc.cache_entries",
		"select * from nation",
		"select * from nation, region where n_regionkey = r_regionkey and r_name = 'ASIA'",
		"select * from nation where n_regionkey = 1 order by n_name desc limit 3",
		"select a.n_name, b.n_name from nation a, nation b where a.n_regionkey = b.n_regionkey and a.n_nationkey < 5",
		"select l_returnflag, count(*) from lineitem group by l_returnflag having l_returnflag = 'R'",
		"select extract(year from o_orderdate) as y, sum(o_totalprice) as total from orders group by extract(year from o_orderdate) order by y",
		"select n_name, n_regionkey from nation order by 2 desc, 1",
		"select count(*) from nation, region where n_regionkey = r_regionkey and (n_name = 'FRANCE' or r_name = 'ASIA')",
		"select l_orderkey from lineitem where l_quantity < 5 and l_discount > 0.05",
	}
	sets := []corpus{
		{"tpch", tdb, tpchSQL},
		{"ssb", sdb, ssbSQL},
		{"tpcds", ddb, dsSQL},
		{"workload-a", wdb, workload.GenerateA(workload.AConfig{TotalQueries: 20, WarmupQueries: 10, Seed: 7})},
		{"pcsh", tdb, meta},
		{"edge", tdb, edge},
	}

	var b strings.Builder
	for _, c := range sets {
		for i, q := range c.queries {
			plan, err := c.db.Plan(q)
			if err != nil {
				t.Fatalf("%s #%d: %v\n%s", c.name, i, err, q)
			}
			fmt.Fprintf(&b, "=== %s #%d\n%s\n--\n%s\n", c.name, i, strings.TrimSpace(q), engine.Explain(plan))
		}
	}
	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(planGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotCases, wantCases := strings.Split(got, "=== "), strings.Split(string(want), "=== ")
	for i := 0; i < len(gotCases) && i < len(wantCases); i++ {
		if gotCases[i] != wantCases[i] {
			t.Errorf("plan differs from %s:\n--- want\n%s--- got\n%s", planGolden, wantCases[i], gotCases[i])
		}
	}
	if len(gotCases) != len(wantCases) {
		t.Errorf("%d cases, golden has %d", len(gotCases)-1, len(wantCases)-1)
	}
}

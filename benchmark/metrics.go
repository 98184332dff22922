package main

import (
	"math"
	"sort"
)

// metric is one named measurement as it appears in every JSON output.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit. exact marks program-side counts
// that must repeat exactly for one seed (-compare requires equality).
type metricDef struct {
	name, unit string
	exact      bool
}

// endToEndMetrics are measured with tracing off; BENCHMARK.json fixes a
// regression bound for each. The names here and there are the same set
// (the smoke test checks it).
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "qps", unit: "1/s"},
	{name: "query_p50_ms", unit: "ms"},
	{name: "query_p99_ms", unit: "ms"},
	{name: "cpu_ms_per_query", unit: "ms"},
	{name: "alloc_kb_per_query", unit: "KiB"},
	{name: "peak_rss_mb", unit: "MiB"},
}

// perLayerMetrics come from the traced pass. Layers are this repository's
// packages; times are medians of harness-side timings of public calls.
var perLayerMetrics = []metricDef{
	{name: "server.ping_us", unit: "us"},
	{name: "server.overhead_us", unit: "us"},
	{name: "server.result_bytes_per_query", unit: "B", exact: true},
	{name: "server.rejected", unit: "count", exact: true},

	{name: "sql.normalize_us", unit: "us"},
	{name: "sql.plancache_get_us", unit: "us"},
	{name: "sql.parse_plan_us", unit: "us"},
	{name: "sql.plancache_hit_rate", unit: "ratio", exact: true},
	{name: "sql.plancache_invalidations", unit: "count", exact: true},

	{name: "expr.bind_us", unit: "us"},

	{name: "core.lookup_us", unit: "us"},
	{name: "core.insert_us", unit: "us"},
	{name: "core.miss_penalty_us", unit: "us"},
	{name: "core.hit_rate", unit: "ratio", exact: true},
	{name: "core.entries", unit: "count", exact: true},
	{name: "core.cache_bytes", unit: "B", exact: true},
	{name: "core.evictions", unit: "count", exact: true},
	{name: "core.extends", unit: "count", exact: true},
	{name: "core.invalidations", unit: "count", exact: true},

	{name: "storage.kernel_rle_ns_per_row", unit: "ns"},
	{name: "storage.kernel_for_ns_per_row", unit: "ns"},
	{name: "storage.kernel_dict_ns_per_row", unit: "ns"},
	{name: "storage.decode_ns_per_row", unit: "ns"},
	{name: "storage.append_us_per_krow", unit: "us"},
	{name: "storage.vacuum_ms", unit: "ms"},
	{name: "storage.vacuum_max_ms", unit: "ms"},
	{name: "storage.bytes_per_row", unit: "B", exact: true},

	{name: "engine.exec_us", unit: "us"},
	{name: "engine.scan_us", unit: "us"},
	{name: "engine.join_us", unit: "us"},
	{name: "engine.agg_us", unit: "us"},
	{name: "engine.other_us", unit: "us"},
	{name: "engine.rows_scanned", unit: "count", exact: true},
	{name: "engine.blocks_accessed", unit: "count", exact: true},
	{name: "engine.blocks_pruned_zonemap", unit: "count", exact: true},
	{name: "engine.blocks_pruned_cache", unit: "count", exact: true},
	{name: "engine.rows_decoded", unit: "count", exact: true},
	{name: "engine.blocks_kernel", unit: "count", exact: true},
	{name: "engine.morsels", unit: "count", exact: true},
	{name: "engine.parallel_efficiency", unit: "ratio"},

	{name: "predcache.query_us", unit: "us"},
	{name: "predcache.tail_us", unit: "us"},
	{name: "predcache.allocs_per_query", unit: "count"},
	{name: "predcache.insert_us", unit: "us"},
	{name: "predcache.delete_us", unit: "us"},
	{name: "predcache.update_us", unit: "us"},

	{name: "trace.unattributed_us", unit: "us"},
	{name: "trace.overhead_pct", unit: "%"},
}

// workloadNames lists the four workloads by the names later issues cite.
var workloadNames = []string{"point_wire", "scan_repeat", "tpch_join", "mixed_dml"}

// percentile returns the q-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median sorts a copy of vals and returns its middle value (mean of the two
// middle values for an even count).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the driver computes spreads with. Fewer than two values have no spread.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n < 2 {
		if n == 1 {
			return vals[0], vals[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(i int) float64 { // cut point i of 4
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs((q3 - q1) / m)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

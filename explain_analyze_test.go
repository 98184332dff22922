package predcache_test

import (
	"fmt"
	"strings"
	"testing"

	predcache "github.com/predcache/predcache"
)

// planText runs an EXPLAIN/EXPLAIN ANALYZE statement through the normal
// Query path and joins the one-column text result back into a string.
func planText(t *testing.T, db *predcache.DB, query string) string {
	t.Helper()
	res, err := db.Query(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	var b strings.Builder
	for i := 0; i < res.NumRows(); i++ {
		b.WriteString(res.StringValue(i, 0))
		b.WriteByte('\n')
	}
	return b.String()
}

// assertTotalsMatch rebuilds the totals line from LastQueryStats — which
// EXPLAIN ANALYZE snapshots from the same execution — and requires it
// verbatim in the rendered output.
func assertTotalsMatch(t *testing.T, db *predcache.DB, out string) {
	t.Helper()
	st := db.LastQueryStats()
	want := fmt.Sprintf("totals: rows scanned=%d qualified=%d decoded=%d; blocks accessed=%d decoded=%d kernel(encoded)=%d pruned(zonemap)=%d pruned(cache)=%d; cache hits=%d misses=%d",
		st.RowsScanned, st.RowsQualified, st.RowsDecoded,
		st.BlocksAccessed, st.BlocksDecoded, st.BlocksKernel,
		st.BlocksSkipped, st.BlocksPrunedCache, st.CacheHits, st.CacheMisses)
	if !strings.Contains(out, want) {
		t.Fatalf("totals line does not match LastQueryStats\nwant: %s\ngot:\n%s", want, out)
	}
}

// TestExplainAnalyzeConsistency checks the acceptance criterion that the
// rendered EXPLAIN ANALYZE output is consistent with LastQueryStats: the
// totals line is built from the same counters, the cold run reports a cache
// miss and the warm run a hit, and every executed node carries a wall time.
func TestExplainAnalyzeConsistency(t *testing.T) {
	db := openWithData(t, 4000)
	const q = "select count(*) as c from t where val >= 50"

	cold := planText(t, db, "explain analyze "+q)
	if !strings.Contains(cold, "time=") {
		t.Fatalf("no node wall times in output:\n%s", cold)
	}
	if !strings.Contains(cold, "cache=miss") {
		t.Fatalf("cold run did not report a cache miss:\n%s", cold)
	}
	assertTotalsMatch(t, db, cold)

	// Same predicate again: the scan must now be served from the cache, and
	// case-insensitive EXPLAIN ANALYZE must route the same way.
	warm := planText(t, db, "EXPLAIN ANALYZE "+q)
	if !strings.Contains(warm, "cache=hit") {
		t.Fatalf("warm run did not report a cache hit:\n%s", warm)
	}
	assertTotalsMatch(t, db, warm)
	if st := db.LastQueryStats(); st.CacheHits == 0 {
		t.Fatalf("warm EXPLAIN ANALYZE recorded no cache hit: %+v", st)
	}

	// Plain EXPLAIN must not execute the statement: no timings, and the
	// previous stats snapshot stays in place.
	before := db.LastQueryStats()
	plain := planText(t, db, "explain "+q)
	if strings.Contains(plain, "time=") {
		t.Fatalf("plain EXPLAIN carries wall times (was it executed?):\n%s", plain)
	}
	if after := db.LastQueryStats(); after != before {
		t.Fatalf("plain EXPLAIN changed LastQueryStats: %+v -> %+v", before, after)
	}
}

// TestExplainAnalyzeKernelBreakdown checks that a warm query over an int
// predicate reports the encoded-kernel split: the scan line carries the
// kernels(decoded=… encoded=…) annotation, the kernel counter is non-zero
// (the filter ran on compressed blocks), and decoded blocks stay below
// accessed blocks (partial decode skipped full materialization).
func TestExplainAnalyzeKernelBreakdown(t *testing.T) {
	db := openWithData(t, 4000)
	// sum(val) projects a different column than the filter touches, so the
	// id blocks are kernel-only (never decompressed) while val is partially
	// decoded for the qualifying rows.
	const q = "select sum(val) as s from t where id between 1200 and 1800"

	planText(t, db, "explain analyze "+q) // cold: populate the cache
	warm := planText(t, db, "EXPLAIN ANALYZE "+q)
	if !strings.Contains(warm, "cache=hit") {
		t.Fatalf("warm run did not report a cache hit:\n%s", warm)
	}
	if !strings.Contains(warm, "kernels(decoded=") {
		t.Fatalf("warm run missing the kernel breakdown annotation:\n%s", warm)
	}
	assertTotalsMatch(t, db, warm)
	st := db.LastQueryStats()
	if st.BlocksKernel == 0 {
		t.Fatalf("warm int-predicate scan evaluated no encoded kernels: %+v", st)
	}
	if st.BlocksDecoded >= st.BlocksAccessed {
		t.Fatalf("partial decode saved nothing: decoded=%d accessed=%d", st.BlocksDecoded, st.BlocksAccessed)
	}
	if st.RowsDecoded == 0 || st.RowsDecoded > st.RowsScanned {
		t.Fatalf("rows.decoded should be positive and at most rows.scanned: %+v", st)
	}
}

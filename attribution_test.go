package predcache_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	predcache "github.com/predcache/predcache"
)

// TestQueryShapesMatchesQueryLogGroundTruth cross-checks the pc.query_shapes
// ledger against a SQL GROUP BY over pc.query_log: both record the same
// attributed cpu_us/allocs per query, so the per-shape sums must agree
// exactly — not approximately — for every workload shape.
func TestQueryShapesMatchesQueryLogGroundTruth(t *testing.T) {
	db := openWithData(t, 4000)

	// Three shapes with distinct repetition counts.
	workload := []struct {
		sql   string
		times int
	}{
		{"select count(*) from t where id < 500", 3},
		{"select grp, sum(val) as s from t group by grp", 2},
		{"select id, val from t where id = 77", 1},
	}
	total := 0
	for _, w := range workload {
		for i := 0; i < w.times; i++ {
			one(t, db, w.sql)
			total++
		}
	}

	// The ledger as the workload left it: recording happens after
	// execution, so the read sees only the workload shapes, ranked by CPU.
	type shapeRow struct{ calls, cpu, allocs, bytes, rows int64 }
	shapes := one(t, db, "select shape_id, shape_text, calls, cpu_us, allocs, alloc_bytes, result_rows from pc.query_shapes")
	if shapes.NumRows() != len(workload) {
		t.Fatalf("pc.query_shapes retained %d shapes, want %d:\n%s", shapes.NumRows(), len(workload), shapes.Format(10))
	}
	byID := make(map[string]shapeRow, len(workload))
	for i := 0; i < shapes.NumRows(); i++ {
		if i > 0 && intCell(t, shapes, i-1, "cpu_us") < intCell(t, shapes, i, "cpu_us") {
			t.Fatalf("shapes not ranked by CPU desc:\n%s", shapes.Format(10))
		}
		id := strCell(t, shapes, i, "shape_id")
		if id == "" || strCell(t, shapes, i, "shape_text") == "" {
			t.Fatalf("shape missing identity:\n%s", shapes.Format(10))
		}
		byID[id] = shapeRow{
			calls:  intCell(t, shapes, i, "calls"),
			cpu:    intCell(t, shapes, i, "cpu_us"),
			allocs: intCell(t, shapes, i, "allocs"),
			bytes:  intCell(t, shapes, i, "alloc_bytes"),
			rows:   intCell(t, shapes, i, "result_rows"),
		}
	}

	// Every workload record must carry attribution columns. The workload
	// is statements 0..total-1; the reads after it have shapes of their own.
	workloadOnly := fmt.Sprintf(" from pc.query_log where seq < %d", total)
	log := one(t, db, "select shape_id, cpu_us, exec_us"+workloadOnly)
	if log.NumRows() != total {
		t.Fatalf("query log has %d workload records, want %d", log.NumRows(), total)
	}
	for i := 0; i < log.NumRows(); i++ {
		// Attributed CPU = exec wall + worker extra, so it can never fall
		// below the exec phase alone.
		if strCell(t, log, i, "shape_id") == "" || intCell(t, log, i, "cpu_us") < intCell(t, log, i, "exec_us") {
			t.Fatalf("record %d missing attribution:\n%s", i, log.Format(10))
		}
	}

	// SQL ground truth: aggregate the raw per-query log by shape.
	res := one(t, db, `select shape_id, count(*) as calls, sum(cpu_us) as cpu,
		sum(allocs) as allocs, sum(alloc_bytes) as bytes, sum(result_rows) as rows`+
		workloadOnly+` group by shape_id`)
	if res.NumRows() != len(workload) {
		t.Fatalf("ground truth has %d shapes, want %d\n%s", res.NumRows(), len(workload), res.Format(10))
	}
	seen := 0
	for row := 0; row < res.NumRows(); row++ {
		id := strCell(t, res, row, "shape_id")
		s, ok := byID[id]
		if !ok {
			t.Fatalf("ground-truth shape %q not in pc.query_shapes:\n%s", id, shapes.Format(10))
		}
		seen++
		if got, want := intCell(t, res, row, "calls"), s.calls; got != want {
			t.Errorf("shape %s calls: log says %d, ledger says %d", id, got, want)
		}
		if got, want := intCell(t, res, row, "cpu"), s.cpu; got != want {
			t.Errorf("shape %s cpu_us: log says %d, ledger says %d", id, got, want)
		}
		if got, want := intCell(t, res, row, "allocs"), s.allocs; got != want {
			t.Errorf("shape %s allocs: log says %d, ledger says %d", id, got, want)
		}
		if got, want := intCell(t, res, row, "bytes"), s.bytes; got != want {
			t.Errorf("shape %s alloc_bytes: log says %d, ledger says %d", id, got, want)
		}
		if got, want := intCell(t, res, row, "rows"), s.rows; got != want {
			t.Errorf("shape %s rows: log says %d, ledger says %d", id, got, want)
		}
	}
	if seen != len(workload) {
		t.Fatalf("matched %d shapes, want %d", seen, len(workload))
	}

	// A later read of the ledger still agrees for the workload shapes (the
	// reads above have their own shapes by now).
	res = one(t, db, "select shape_id, calls, cpu_us from pc.query_shapes order by cpu_us desc")
	matched := 0
	for row := 0; row < res.NumRows(); row++ {
		s, ok := byID[strCell(t, res, row, "shape_id")]
		if !ok {
			continue // a meta query's shape
		}
		matched++
		if got := intCell(t, res, row, "calls"); got != s.calls {
			t.Errorf("pc.query_shapes calls = %d, first read %d", got, s.calls)
		}
		if got := intCell(t, res, row, "cpu_us"); got != s.cpu {
			t.Errorf("pc.query_shapes cpu_us = %d, first read %d", got, s.cpu)
		}
	}
	if matched != len(workload) {
		t.Fatalf("pc.query_shapes matched %d workload shapes, want %d\n%s", matched, len(workload), res.Format(10))
	}
}

// TestShapeNormalizationFoldsLiterals asserts the shape key is the
// normalized SQL: the same query with different literals lands in one shape.
func TestShapeNormalizationFoldsLiterals(t *testing.T) {
	db := openWithData(t, 2000)
	one(t, db, "select count(*) from t where id < 100")
	one(t, db, "select count(*) from t where id < 900")
	shapes := one(t, db, "select calls, shape_text from pc.query_shapes")
	if shapes.NumRows() != 1 {
		t.Fatalf("literal variants produced %d shapes, want 1:\n%s", shapes.NumRows(), shapes.Format(10))
	}
	if calls := intCell(t, shapes, 0, "calls"); calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	if key := strCell(t, shapes, 0, "shape_text"); strings.Contains(key, "100") || strings.Contains(key, "900") {
		t.Fatalf("shape key kept literals: %q", key)
	}
}

// TestAlertsTableEmpty checks pc.alerts exists and is empty in a healthy
// process (no sampler running, nothing fired).
func TestAlertsTableEmpty(t *testing.T) {
	db := openWithData(t, 100)
	res := one(t, db, "select count(*) as n from pc.alerts")
	if got := intCell(t, res, 0, "n"); got != 0 {
		t.Fatalf("pc.alerts has %d rows in a healthy process", got)
	}
}

// TestRunPlanSkipsAttribution pins the invariant the alloc budgets rely on:
// hand-built plans through db.Run keep the bare execution path — no shape
// ledger entry, no pprof labels, no allocation snapshots. The query log still
// gets its usual (unattributed) row.
func TestRunPlanSkipsAttribution(t *testing.T) {
	db := openWithData(t, 1000)
	plan, err := db.Plan("select count(*) from t where id < 100")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Run(plan); err != nil {
		t.Fatal(err)
	}
	if res := one(t, db, "select count(*) as n from pc.query_shapes"); intCell(t, res, 0, "n") != 0 {
		t.Fatalf("db.Run recorded %d shapes, want 0", intCell(t, res, 0, "n"))
	}
	log := one(t, db, "select shape_id, allocs, alloc_bytes from pc.query_log where query_text = ''")
	if log.NumRows() != 1 {
		t.Fatalf("db.Run recorded %d log rows, want 1", log.NumRows())
	}
	if strCell(t, log, 0, "shape_id") != "" || intCell(t, log, 0, "allocs") != 0 || intCell(t, log, 0, "alloc_bytes") != 0 {
		t.Fatalf("db.Run row carries attribution it must not pay for:\n%s", log.Format(5))
	}
}

// TestSessionLabelFromContext checks ContextWithSession round-trips through
// QueryCtx without affecting results.
func TestSessionLabelFromContext(t *testing.T) {
	db := openWithData(t, 1000)
	ctx := predcache.ContextWithSession(context.Background(), "s42")
	res, err := db.QueryCtx(ctx, "select count(*) as n from t where id < 100")
	if err != nil {
		t.Fatal(err)
	}
	if intCell(t, res, 0, "n") != 100 {
		t.Fatalf("unexpected result\n%s", res.Format(5))
	}
}

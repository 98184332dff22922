package predcache_test

import (
	"context"
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

	// Go-side view before any meta query pollutes the ledger.
	shapes := db.QueryShapes()
	if len(shapes) != len(workload) {
		t.Fatalf("QueryShapes retained %d shapes, want %d: %+v", len(shapes), len(workload), shapes)
	}
	for i := 1; i < len(shapes); i++ {
		if shapes[i-1].CPUMicros < shapes[i].CPUMicros {
			t.Fatalf("shapes not ranked by CPU desc: %+v", shapes)
		}
	}
	byID := make(map[string]predcache.ShapeRow, len(shapes))
	for _, s := range shapes {
		if s.ID == "" || s.Key == "" {
			t.Fatalf("shape missing identity: %+v", s)
		}
		byID[s.ID] = s
	}

	// Every workload record must carry attribution columns.
	log := db.QueryLog()
	if len(log) != total {
		t.Fatalf("query log has %d records, want %d", len(log), total)
	}
	for _, rec := range log {
		if rec.ShapeID == "" {
			t.Fatalf("record missing shape_id: %+v", rec)
		}
		// Attributed CPU = exec wall + worker extra, so it can never fall
		// below the exec phase alone.
		if rec.CPUMicros < rec.ExecMicros {
			t.Fatalf("attributed CPU below exec time: %+v", rec)
		}
	}

	// SQL ground truth: aggregate the raw per-query log by shape. Recording
	// happens after execution, so this query sees exactly the workload.
	res := one(t, db, `select shape_id, count(*) as calls, sum(cpu_us) as cpu,
		sum(allocs) as allocs, sum(alloc_bytes) as bytes, sum(result_rows) as rows
		from pc.query_log group by shape_id`)
	if res.NumRows() != len(workload) {
		t.Fatalf("ground truth has %d shapes, want %d\n%s", res.NumRows(), len(workload), res.Format(10))
	}
	seen := 0
	for row := 0; row < res.NumRows(); row++ {
		id := strCell(t, res, row, "shape_id")
		s, ok := byID[id]
		if !ok {
			t.Fatalf("ground-truth shape %q not in QueryShapes: %+v", id, shapes)
		}
		seen++
		if got, want := intCell(t, res, row, "calls"), s.Calls; got != want {
			t.Errorf("shape %s calls: log says %d, ledger says %d", id, got, want)
		}
		if got, want := intCell(t, res, row, "cpu"), s.CPUMicros; got != want {
			t.Errorf("shape %s cpu_us: log says %d, ledger says %d", id, got, want)
		}
		if got, want := intCell(t, res, row, "allocs"), s.AllocObjects; got != want {
			t.Errorf("shape %s allocs: log says %d, ledger says %d", id, got, want)
		}
		if got, want := intCell(t, res, row, "bytes"), s.AllocBytes; got != want {
			t.Errorf("shape %s alloc_bytes: log says %d, ledger says %d", id, got, want)
		}
		if got, want := intCell(t, res, row, "rows"), s.Rows; got != want {
			t.Errorf("shape %s rows: log says %d, ledger says %d", id, got, want)
		}
	}
	if seen != len(workload) {
		t.Fatalf("matched %d shapes, want %d", seen, len(workload))
	}

	// The SQL view of the ledger must agree with the Go accessor for the
	// workload shapes (the meta queries above have their own shapes by now).
	res = one(t, db, "select shape_id, calls, cpu_us from pc.query_shapes order by cpu_us desc")
	matched := 0
	for row := 0; row < res.NumRows(); row++ {
		s, ok := byID[strCell(t, res, row, "shape_id")]
		if !ok {
			continue // a meta query's shape
		}
		matched++
		if got := intCell(t, res, row, "calls"); got != s.Calls {
			t.Errorf("pc.query_shapes calls = %d, ledger %d", got, s.Calls)
		}
		if got := intCell(t, res, row, "cpu_us"); got != s.CPUMicros {
			t.Errorf("pc.query_shapes cpu_us = %d, ledger %d", got, s.CPUMicros)
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
	shapes := db.QueryShapes()
	if len(shapes) != 1 {
		t.Fatalf("literal variants produced %d shapes, want 1: %+v", len(shapes), shapes)
	}
	if shapes[0].Calls != 2 {
		t.Fatalf("calls = %d, want 2", shapes[0].Calls)
	}
	if strings.Contains(shapes[0].Key, "100") || strings.Contains(shapes[0].Key, "900") {
		t.Fatalf("shape key kept literals: %q", shapes[0].Key)
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
	if db.Alerts() != nil && len(db.Alerts()) != 0 {
		t.Fatalf("Alerts() = %+v, want empty", db.Alerts())
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
	if n := len(db.QueryShapes()); n != 0 {
		t.Fatalf("db.Run recorded %d shapes, want 0", n)
	}
	log := db.QueryLog()
	if len(log) != 1 {
		t.Fatalf("db.Run recorded %d log rows, want 1", len(log))
	}
	if log[0].ShapeID != "" || log[0].AllocObjects != 0 || log[0].AllocBytes != 0 {
		t.Fatalf("db.Run row carries attribution it must not pay for: %+v", log[0])
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

package predcache_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"regexp"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	predcache "github.com/predcache/predcache"
	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/obs"
	"github.com/predcache/predcache/internal/storage"
)

// probeTable is a one-column virtual table whose Snapshot runs a hook on the
// executing goroutine: tests use it to sleep (a deterministic slow
// statement), to fail (an execution error) and to read the pprof labels the
// statement runs under.
type probeTable struct {
	name string
	hook func() error
}

var probeSchema = storage.Schema{{Name: "x", Type: storage.Int64}}

func (p *probeTable) Name() string           { return p.name }
func (p *probeTable) Schema() storage.Schema { return probeSchema }
func (p *probeTable) NumRows() int           { return 1 }
func (p *probeTable) Snapshot() (*engine.Relation, error) {
	if err := p.hook(); err != nil {
		return nil, err
	}
	return engine.NewRelation([]engine.RelCol{{Name: "x", Type: storage.Int64, Ints: []int64{1}}})
}

// goroutineLabels returns the pprof label set of the calling goroutine as
// the goroutine profile prints it ({"query_id":"q3", ...}): the first
// labelled record whose stack contains this function.
func goroutineLabels() string {
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 1)
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, "goroutineLabels") {
			continue
		}
		for _, line := range strings.Split(rec, "\n") {
			if rest, ok := strings.CutPrefix(line, "# labels: "); ok {
				return rest
			}
		}
	}
	return ""
}

// labelProbe registers pc.labels on db; every scan of it stores the labels
// of the goroutine executing the statement.
func labelProbe(t *testing.T, db *predcache.DB) *string {
	t.Helper()
	var labels string
	if err := db.RegisterSystemTable(&probeTable{name: "pc.labels", hook: func() error {
		labels = goroutineLabels()
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	return &labels
}

// With the query log disabled the statement sequence still runs: retained
// traces get distinct non-negative ids that pc.trace_spans resolves, and the
// SLO exemplars and the query_id pprof label carry the same ids. (The log ring
// used to own the sequence, so all of them were -1.)
func TestTraceIDsWithQueryLogDisabled(t *testing.T) {
	db := openWithData(t, 1000, predcache.WithQueryLogCapacity(0))
	labels := labelProbe(t, db)
	queries := []string{
		"select count(*) from t where id < 10",
		"select id from t where id = 7",
		"select x from pc.labels",
	}
	for _, q := range queries {
		one(t, db, q)
	}
	res := one(t, db, "select trace_id, query_text, spans from pc.traces order by trace_id")
	if res.NumRows() != len(queries) {
		t.Fatalf("retained %d traces, want %d:\n%s", res.NumRows(), len(queries), res.Format(10))
	}
	ids := map[int64]bool{}
	var labelsID int64
	for i := 0; i < res.NumRows(); i++ {
		id := intCell(t, res, i, "trace_id")
		if id < 0 || ids[id] {
			t.Fatalf("trace ids not distinct and non-negative:\n%s", res.Format(10))
		}
		ids[id] = true
		if intCell(t, res, i, "spans") == 0 {
			t.Errorf("trace %d has no spans", id)
		}
		if strCell(t, res, i, "query_text") == "select x from pc.labels" {
			labelsID = id
		}
	}
	if want := fmt.Sprintf(`"query_id":"q%d"`, labelsID); !strings.Contains(*labels, want) {
		t.Errorf("pprof labels %s lack %s", *labels, want)
	}
	// Checked against a later pc.traces read, not against ids: the reads are
	// themselves retained statements, may become exemplars, and cannot
	// appear in the snapshots they took while running.
	slo := one(t, db, "select query_class, exemplar_trace_id from pc.slo where sample_count > 0")
	if slo.NumRows() == 0 {
		t.Fatal("no populated SLO class")
	}
	res = one(t, db, "select trace_id from pc.traces")
	retained := map[int64]bool{}
	for i := 0; i < res.NumRows(); i++ {
		retained[intCell(t, res, i, "trace_id")] = true
	}
	for i := 0; i < slo.NumRows(); i++ {
		if id := intCell(t, slo, i, "exemplar_trace_id"); !retained[id] {
			t.Errorf("pc.slo %s exemplar %d is not a retained trace", strCell(t, slo, i, "query_class"), id)
		}
	}
	if res := one(t, db, "select count(*) as n from pc.query_log"); intCell(t, res, 0, "n") != 0 {
		t.Fatal("pc.query_log holds rows with capacity 0")
	}
}

// EXPLAIN ANALYZE through QueryCtx is the statement it wraps as far as
// attribution goes: it runs under the caller's session label and is shaped by
// the normalized inner statement, so N literal variants share one
// pc.query_shapes row, while pc.query_log keeps the full text.
func TestExplainAnalyzeShapedAndLabelled(t *testing.T) {
	db := openWithData(t, 1000)
	labels := labelProbe(t, db)
	ctx := predcache.ContextWithSession(context.Background(), "s42")
	const n = 5
	for i := 0; i < n; i++ {
		q := fmt.Sprintf("explain analyze select count(*) from t where id = %d", i)
		if _, err := db.QueryCtx(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	shapes := one(t, db, "select shape_id, calls, shape_text from pc.query_shapes")
	if shapes.NumRows() != 1 || intCell(t, shapes, 0, "calls") != n {
		t.Fatalf("%d literal variants of one EXPLAIN ANALYZE made these shapes:\n%s", n, shapes.Format(10))
	}
	if key := strCell(t, shapes, 0, "shape_text"); strings.Contains(key, "explain") {
		t.Errorf("shape key %q keeps the EXPLAIN prefix", key)
	}
	id := strCell(t, shapes, 0, "shape_id")
	// The plain statement is the same shape (the pc.* reads have their own).
	one(t, db, "select count(*) from t where id = 99")
	shapes = one(t, db, "select calls, cpu_us from pc.query_shapes where shape_id = '"+id+"'")
	if intCell(t, shapes, 0, "calls") != n+1 {
		t.Fatalf("plain statement did not join its EXPLAIN ANALYZE shape:\n%s", shapes.Format(10))
	}
	log := one(t, db, "select seq, query_text, cpu_us from pc.query_log where shape_id = '"+id+"' order by seq")
	if log.NumRows() != n+1 {
		t.Fatalf("query log has %d records of the shape, want %d", log.NumRows(), n+1)
	}
	var cpu int64
	for i := 0; i < log.NumRows(); i++ {
		if text := strCell(t, log, i, "query_text"); i < n && !strings.HasPrefix(text, "explain analyze select") {
			t.Errorf("pc.query_log.query_text lost the prefix: %q", text)
		}
		cpu += intCell(t, log, i, "cpu_us")
	}
	if want := intCell(t, shapes, 0, "cpu_us"); cpu != want {
		t.Errorf("sum(cpu_us) over pc.query_log = %d, pc.query_shapes = %d", cpu, want)
	}
	if _, err := db.QueryCtx(ctx, "explain analyze select x from pc.labels"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(*labels, `"session":"s42"`) {
		t.Errorf("EXPLAIN ANALYZE ran under labels %s, want session s42", *labels)
	}
}

// sinkStream is the statement mix of the "every sink agrees" tests: each kind
// of outcome emit sees, with what the statement's event must look like.
var sinkStream = []struct {
	name     string
	sql      string // empty: hand-built plan through db.Run
	cancel   bool   // run under a context that cancels at the first check
	executed bool
	failed   bool
	slow     bool // must be slow (the others may be, on a stalled host)
	workers  bool // must report worker time: its scan claims both slices
	class    string
}{
	{name: "ok", sql: "select count(*) from t where id < 10", executed: true, class: "agg"},
	{name: "ok-repeat", sql: "select count(*) from t where id < 20", executed: true, class: "agg"},
	{name: "point", sql: "select id from t where id = 7", executed: true, class: "point"},
	{name: "scan", sql: "select id, val from t where val >= 10", executed: true, workers: true, class: "range"},
	{name: "parse-error", sql: "select from from from", failed: true},
	{name: "plan-error", sql: "select nope from t", failed: true},
	{name: "exec-error", sql: "select x from pc.fail", executed: true, failed: true, class: "range"},
	{name: "cancelled", sql: "select count(*) from t a, t b where a.id = b.id", cancel: true, executed: true, failed: true, class: "agg"},
	{name: "slow", sql: "select x from pc.sleep", executed: true, slow: true, class: "range"},
	{name: "explain-analyze", sql: "explain analyze select count(*) from t where id < 30", executed: true, class: "agg"},
	{name: "explain-analyze-error", sql: "explain analyze select nope from t", failed: true},
	{name: "explain-error", sql: "explain select nope from t", failed: true},
	{name: "hand-built", executed: true},
}

// sinkDB opens a database wired to every sink: a metrics registry, a JSON
// logger on the returned buffer, a 40ms slow threshold, four workers per
// query whatever GOMAXPROCS is, and the probe tables sinkStream uses.
func sinkDB(t *testing.T) (*predcache.DB, *predcache.Metrics, *syncBuffer) {
	t.Helper()
	logs := &syncBuffer{}
	db := openWithData(t, 5000,
		predcache.WithMaxWorkers(4),
		predcache.WithSlowQueryThreshold(40*time.Millisecond),
		predcache.WithLogger(slog.New(slog.NewJSONHandler(logs, nil))))
	m := predcache.NewMetrics()
	db.EnableMetrics(m)
	for _, p := range []*probeTable{
		{name: "pc.fail", hook: func() error { return errors.New("probe failed") }},
		{name: "pc.sleep", hook: func() error { time.Sleep(60 * time.Millisecond); return nil }},
	} {
		if err := db.RegisterSystemTable(p); err != nil {
			t.Fatal(err)
		}
	}
	return db, m, logs
}

// syncBuffer is a bytes.Buffer safe for the concurrent writes of a shared
// logger.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// runSinkStatement runs one sinkStream entry and checks only its error.
func runSinkStatement(t *testing.T, db *predcache.DB, i int, session string) {
	s := sinkStream[i]
	var err error
	switch {
	case s.sql == "":
		var plan engine.Node
		if plan, err = db.Plan("select count(*) from t where id < 40"); err == nil {
			_, err = db.Run(plan)
		}
	case s.cancel:
		_, err = db.QueryCtx(newCountdownCtx(1), s.sql)
	default:
		_, err = db.QueryCtx(predcache.ContextWithSession(context.Background(), session), s.sql)
	}
	if (err != nil) != s.failed {
		t.Errorf("%s: err = %v, want failure %v", s.name, err, s.failed)
	}
}

// logLine is the subset of a structured query line the sinks must agree on.
type logLine struct {
	Msg     string `json:"msg"`
	QueryID int64  `json:"query_id"`
	TraceID int64  `json:"trace_id"`
	ShapeID string `json:"shape_id"`
	Class   string `json:"class"`
	Slow    bool   `json:"slow"`
	Error   string `json:"error"`
}

// checkSinksAgree takes the query log as the list of emitted events and
// asserts that every other sink saw the same statements (read through the
// sinks, so the checks run no statements of their own): retained traces
// carry the event's seq, shape, class, slow flag and error; the SLO counts,
// the shape ledger and every pushed counter add up to exactly the executed
// events; and the logger wrote one line per failed or slow SQL statement
// with the event's fields.
func checkSinksAgree(t *testing.T, db *predcache.DB, m *predcache.Metrics, logs string) {
	t.Helper()
	type shapeSum struct{ calls, errors, cpu int64 }
	var executed, failedExec float64
	slo := map[string]uint64{}
	// counters sums each pushed scan counter over the successful executed
	// events: queryMetrics.record adds exactly these fields.
	counters := map[string]float64{}
	shapes := map[string]*shapeSum{}
	wantLines := map[int64]obs.QueryEvent{}
	seqs := map[int64]bool{}
	sinks := predcache.SinksOf(db)
	for _, ev := range sinks.Log.Records() {
		if seqs[ev.Seq] {
			t.Errorf("seq %d emitted twice", ev.Seq)
		}
		seqs[ev.Seq] = true
		if ev.SQL != "" && (ev.Error != "" || ev.Slow) {
			wantLines[ev.Seq] = ev
		}
		rt := sinks.Traces.Trace(ev.Seq)
		if (rt != nil) != ev.Retained {
			t.Errorf("seq %d: event says retained=%v, trace store has it: %v", ev.Seq, ev.Retained, rt != nil)
		}
		if rt != nil {
			reason := "sampled"
			switch {
			case ev.Error != "":
				reason = "error"
			case ev.Slow:
				reason = "slow"
			}
			if rt.ShapeID != ev.ShapeID || rt.Class != ev.Class || rt.Slow != ev.Slow || rt.Error != ev.Error || rt.Reason != reason {
				t.Errorf("seq %d: trace (shape %q class %q slow %v error %q reason %q) disagrees with event (shape %q class %q slow %v error %q)",
					ev.Seq, rt.ShapeID, rt.Class, rt.Slow, rt.Error, rt.Reason, ev.ShapeID, ev.Class, ev.Slow, ev.Error)
			}
		}
		if !ev.Executed {
			if ev.Error == "" || ev.ShapeID != "" || ev.Class != "" {
				t.Errorf("seq %d: unexecuted event %+v", ev.Seq, ev)
			}
			continue
		}
		executed++
		if ev.Error != "" {
			failedExec++
		} else {
			for name, v := range map[string]int64{
				"predcache_rows_scanned_total":           ev.RowsScanned,
				"predcache_rows_qualified_total":         ev.RowsQualified,
				"predcache_rows_decoded_total":           ev.RowsDecoded,
				"predcache_blocks_accessed_total":        ev.BlocksAccessed,
				"predcache_blocks_decoded_total":         ev.BlocksDecoded,
				"predcache_blocks_kernel_encoded_total":  ev.BlocksKernel,
				"predcache_blocks_pruned_zonemap_total":  ev.BlocksPrunedZoneMap,
				"predcache_blocks_pruned_cache_total":    ev.BlocksPrunedCache,
				"predcache_scan_cache_hits_total":        ev.CacheHits,
				"predcache_scan_cache_misses_total":      ev.CacheMisses,
				"predcache_morsels_total":                ev.Morsels,
				"predcache_parallel_worker_micros_total": ev.WorkerMicros,
			} {
				counters[name] += float64(v)
			}
		}
		if ev.SQL == "" {
			if ev.ShapeID != "" || ev.Class != "" || ev.Retained {
				t.Errorf("seq %d: hand-built plan carries attribution: %+v", ev.Seq, ev)
			}
			continue
		}
		outcome := "miss"
		if ev.CacheHit {
			outcome = "hit"
		}
		slo[ev.Class+"/"+outcome]++
		s := shapes[ev.ShapeID]
		if s == nil {
			s = &shapeSum{}
			shapes[ev.ShapeID] = s
		}
		s.calls++
		s.cpu += ev.CPUMicros
		if ev.Error != "" {
			s.errors++
		}
	}

	for _, r := range sinks.SLO.Snapshot() {
		outcome := "miss"
		if r.CacheHit {
			outcome = "hit"
		}
		if want := slo[r.Class+"/"+outcome]; r.Count != want {
			t.Errorf("pc.slo %s/%s counts %d, events say %d", r.Class, outcome, r.Count, want)
		}
	}
	ledger := sinks.Shapes.Snapshot()
	if len(ledger) != len(shapes) {
		t.Errorf("pc.query_shapes has %d shapes, events have %d", len(ledger), len(shapes))
	}
	for _, r := range ledger {
		s := shapes[r.ID]
		if s == nil {
			t.Errorf("pc.query_shapes has shape %s no event carries", r.ID)
			continue
		}
		if r.Calls != s.calls || r.Errors != s.errors || r.CPUMicros != s.cpu {
			t.Errorf("pc.query_shapes %s: calls %d errors %d cpu %d, events say %d/%d/%d",
				r.ID, r.Calls, r.Errors, r.CPUMicros, s.calls, s.errors, s.cpu)
		}
	}
	for _, sm := range m.Samples() {
		switch sm.Name {
		case "predcache_queries_total":
			if sm.Value != executed {
				t.Errorf("predcache_queries_total = %v, executed events %v", sm.Value, executed)
			}
		case "predcache_query_errors_total":
			if sm.Value != failedExec {
				t.Errorf("predcache_query_errors_total = %v, failed executed events %v", sm.Value, failedExec)
			}
		case "predcache_query_seconds_count":
			if sm.Value != executed-failedExec {
				t.Errorf("predcache_query_seconds_count = %v, successful events %v", sm.Value, executed-failedExec)
			}
		default:
			if want, ok := counters[sm.Name]; ok {
				if sm.Value != want {
					t.Errorf("%s = %v, successful events sum to %v", sm.Name, sm.Value, want)
				}
				delete(counters, sm.Name)
			}
		}
	}
	for name := range counters {
		t.Errorf("%s is not in the registry", name)
	}
	for _, raw := range strings.Split(strings.TrimSpace(logs), "\n") {
		var l logLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("log line %q: %v", raw, err)
		}
		ev, ok := wantLines[l.QueryID]
		if !ok {
			t.Errorf("log line for seq %d, which is neither failed nor slow: %s", l.QueryID, raw)
			continue
		}
		delete(wantLines, l.QueryID)
		msg := "slow query"
		if ev.Error != "" {
			msg = "query failed"
		}
		if l.Msg != msg || l.TraceID != ev.Seq || l.ShapeID != ev.ShapeID || l.Class != ev.Class || l.Slow != ev.Slow || l.Error != ev.Error {
			t.Errorf("log line %s disagrees with event %+v", raw, ev)
		}
	}
	for seq, ev := range wantLines {
		t.Errorf("no log line for seq %d (%q, error %q, slow %v)", seq, ev.SQL, ev.Error, ev.Slow)
	}
}

// TestEverySinkAgrees runs the statement mix serially, checks each
// statement's event against what that kind of statement must emit, and then
// checks every sink against the events.
func TestEverySinkAgrees(t *testing.T) {
	db, m, logs := sinkDB(t)
	for i, s := range sinkStream {
		runSinkStatement(t, db, i, "s1")
		log := predcache.SinksOf(db).Log.Records()
		if len(log) != i+1 {
			t.Fatalf("%s: query log has %d records, want %d", s.name, len(log), i+1)
		}
		ev := log[i]
		if ev.Seq != int64(i) || ev.SQL != s.sql || ev.Executed != s.executed || (ev.Error != "") != s.failed || ev.Class != s.class {
			t.Errorf("%s: event %+v", s.name, ev)
		}
		if s.slow && !ev.Slow {
			t.Errorf("%s: a %dµs statement is not slow at 40ms", s.name, ev.WallMicros)
		}
		// Scan workers' busy time is attributed like any other operator's.
		if s.workers && (ev.WorkerMicros == 0 || ev.CPUMicros < ev.ExecMicros) {
			t.Errorf("%s: worker_us %d, cpu_us %d, exec_us %d", s.name, ev.WorkerMicros, ev.CPUMicros, ev.ExecMicros)
		}
		if s.cancel && ev.Error != context.Canceled.Error() {
			t.Errorf("%s: error %q", s.name, ev.Error)
		}
		if wantShape := s.executed && s.sql != ""; (ev.ShapeID != "") != wantShape {
			t.Errorf("%s: shape_id %q", s.name, ev.ShapeID)
		}
		// Few enough statements per shape that every SQL trace is kept.
		if ev.Retained != (s.sql != "" && s.name != "explain-error") {
			t.Errorf("%s: retained = %v", s.name, ev.Retained)
		}
	}
	checkSinksAgree(t, db, m, logs.String())

	// pc.metrics is the registry read through SQL: the statement reading it
	// counts every statement executed before it.
	var executed float64
	for _, ev := range predcache.SinksOf(db).Log.Records() {
		if ev.Executed {
			executed++
		}
	}
	qt := one(t, db, "select value from pc.metrics where name = 'predcache_queries_total'")
	if got := qt.Col(0).Floats[0]; got != executed {
		t.Errorf("pc.metrics predcache_queries_total = %v, executed events %v", got, executed)
	}

	// pc.traces.shape is the shape_id: it joins pc.query_shapes.
	res := one(t, db, `select count(*) as n from pc.traces tr, pc.query_shapes s where tr.shape = s.shape_id`)
	if n := intCell(t, res, 0, "n"); n == 0 {
		t.Error("pc.traces.shape joins no pc.query_shapes.shape_id")
	}
	res = one(t, db, "select trace_id, shape from pc.traces order by trace_id limit 1")
	if shape := strCell(t, res, 0, "shape"); !regexp.MustCompile(`^s[0-9a-f]{16}$`).MatchString(shape) {
		t.Errorf("pc.traces.shape = %q, want a shape_id", shape)
	}
}

// TestEverySinkAgreesConcurrent runs the same mix from 8 goroutines (under
// -race in make race / CI) and checks the sinks against each other.
func TestEverySinkAgreesConcurrent(t *testing.T) {
	db, m, logs := sinkDB(t)
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range sinkStream {
				runSinkStatement(t, db, i, fmt.Sprintf("s%d", g))
			}
		}(g)
	}
	wg.Wait()
	if got, want := len(predcache.SinksOf(db).Log.Records()), workers*len(sinkStream); got != want {
		t.Fatalf("query log has %d records, want %d", got, want)
	}
	checkSinksAgree(t, db, m, logs.String())
}

// TestPulledMetricsAgree checks every pulled registry family against the
// source it mirrors: the predicate-cache counters against CacheStats, the
// trace gauges against the trace store, the table gauges against the
// catalog, the SLO histograms against the SLO set, and the runtime gauges
// against the sampler's last retained sample. No statement
// runs between reading the sources and reading the registry.
func TestPulledMetricsAgree(t *testing.T) {
	db, m, _ := sinkDB(t)
	for i := range sinkStream {
		runSinkStatement(t, db, i, "s1")
	}
	for i := 0; i < 2; i++ { // the repeat is a predicate-cache hit
		one(t, db, "select count(*) from t where id < 100")
	}
	db.StartRuntimeSampler(time.Hour) // one sample now, no tick during the test
	defer db.StopRuntimeSampler()

	sinks := predcache.SinksOf(db)
	cs := db.CacheStats()
	ts := sinks.Traces.Stats()
	spans := 0
	for _, rt := range sinks.Traces.Traces() {
		spans += len(rt.Spans)
	}
	names := db.Catalog().TableNames()
	rows, mem := 0, 0
	for _, name := range names {
		tbl, _ := db.Catalog().Table(name)
		rows += tbl.NumRows()
		mem += tbl.MemBytes()
	}
	samples := sinks.Runtime.Samples()
	rs := samples[len(samples)-1]
	want := map[string]float64{
		"predcache_cache_hits_total":               float64(cs.Hits),
		"predcache_cache_misses_total":             float64(cs.Misses),
		"predcache_cache_inserts_total":            float64(cs.Inserts),
		"predcache_cache_extends_total":            float64(cs.Extends),
		"predcache_cache_evictions_total":          float64(cs.Evictions),
		"predcache_cache_invalidations_total":      float64(cs.Invalidations),
		"predcache_cache_admission_deferred_total": float64(cs.AdmissionDeferred),
		"predcache_cache_admission_rejected_total": float64(cs.AdmissionRejected),
		"predcache_cache_entries":                  float64(cs.Entries),
		"predcache_cache_mem_bytes":                float64(cs.MemBytes),
		"predcache_traces_retained":                float64(ts.Retained),
		"predcache_trace_spans_retained":           float64(spans),
		"predcache_traces_offered_total":           float64(ts.Offered),
		"predcache_traces_kept_total":              float64(ts.Kept),
		"predcache_traces_evicted_total":           float64(ts.Evicted),
		"predcache_tables":                         float64(len(names)),
		"predcache_table_rows":                     float64(rows),
		"predcache_table_mem_bytes":                float64(mem),
		"predcache_runtime_goroutines":             float64(rs.Goroutines),
		"predcache_runtime_heap_alloc_bytes":       float64(rs.HeapAllocBytes),
		"predcache_runtime_rss_bytes":              float64(rs.RSSBytes),
		"predcache_runtime_gc_pause_ns_total":      float64(rs.GCPauseNs),
		"predcache_runtime_pool_gets_total":        float64(rs.PoolGets),
		"predcache_runtime_pool_news_total":        float64(rs.PoolNews),
	}
	for _, r := range sinks.SLO.Snapshot() {
		outcome := "miss"
		if r.CacheHit {
			outcome = "hit"
		}
		want["predcache_slo_"+r.Class+"_"+outcome+"_seconds_count"] = float64(r.Count)
	}
	if cs.Hits == 0 || ts.Retained == 0 || rows == 0 || rs.Goroutines == 0 {
		t.Fatalf("vacuous sources: cache %+v traces %+v rows %d runtime %+v", cs, ts, rows, rs)
	}
	for _, sm := range m.Samples() {
		if v, ok := want[sm.Name]; ok {
			if sm.Value != v {
				t.Errorf("%s = %v, its source says %v", sm.Name, sm.Value, v)
			}
			delete(want, sm.Name)
		}
	}
	for name := range want {
		t.Errorf("%s is not in the registry", name)
	}
}

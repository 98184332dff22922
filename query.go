package predcache

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/obs"
	"github.com/predcache/predcache/internal/sql"
	"github.com/predcache/predcache/internal/storage"
)

// Query parses, plans and executes a SELECT statement. Statements prefixed
// with EXPLAIN return the plan as a one-column text result; EXPLAIN ANALYZE
// additionally executes the statement and annotates the plan with wall
// times, cardinalities and per-scan cache outcomes.
func (db *DB) Query(query string) (*Result, error) {
	return db.QueryCtx(context.Background(), query)
}

// QueryCtx is Query with cooperative cancellation: when ctx is cancelled the
// executing plan stops at its next check point (every cancelCheckRows rows
// inside scan, join and aggregation loops) and the query returns
// ctx's error. Cancelled executions are recorded in pc.query_log like any
// other failure, and never install partial predicate-cache entries. A ctx
// that can never be cancelled (context.Background) costs nothing: the
// execution context carries no ctx at all and the per-row checks reduce to a
// nil test.
func (db *DB) QueryCtx(ctx context.Context, query string) (*Result, error) {
	if explain, analyze, rest := sql.StripExplain(query); explain {
		var text string
		var err error
		if analyze {
			text, err = db.explainAnalyze(ctx, query, rest)
		} else {
			text, err = db.explainRecorded(ctx, query, rest)
		}
		if err != nil {
			return nil, err
		}
		return engine.TextRelation("plan", strings.Split(strings.TrimRight(text, "\n"), "\n")), nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			// Already cancelled before any work: nothing to record.
			return nil, err
		}
	}
	st := db.begin(ctx, query)
	st.tr = obs.NewTrace()
	node, err := db.plan(&st, query, true)
	if err != nil {
		db.finish(&st, err)
		return nil, err
	}
	return db.run(&st, node, db.execCtxFor(ctx, st.tr))
}

// statement is one statement in flight: the event it will emit, the
// monotonic start the event's durations are measured from, and the trace
// being recorded (nil for hand-built plans and plain EXPLAIN).
type statement struct {
	ev    obs.QueryEvent
	start time.Time
	tr    *obs.Trace
}

// begin opens a statement: it takes the next sequence number and the start
// time, and labels the event with the text the client sent and the session
// ctx carries. Hand-built plans pass an empty text.
func (db *DB) begin(ctx context.Context, text string) statement {
	st := statement{start: time.Now()}
	st.ev = obs.QueryEvent{
		Seq:         db.seq.Add(1) - 1,
		StartMicros: st.start.UnixMicro(),
		SQL:         text,
		Session:     sessionFromCtx(ctx),
	}
	return st
}

// plan turns a SELECT's text into an executable plan — the one parse→plan
// path of Query, EXPLAIN and EXPLAIN ANALYZE — and fills the event's shape
// key and phase timings. The shape key is the normalized text (the same
// string the plan cache indexes on, so pc.query_shapes, the shape pprof label
// and the plan cache agree on what "one shape" is), or the raw text when
// normalization declines the statement.
//
// With cached set the normalized-SQL plan cache is consulted first. A hit
// skips lexing, parsing and planning: PlanMicros stays zero and ParseMicros
// absorbs only the normalize+clone cost (microseconds), which is how
// plan-cache hits are identified in pc.query_log. On a miss the statement is
// parsed with slot tags so the freshly planned tree can be cached as a bind
// template. EXPLAIN and EXPLAIN ANALYZE pass cached=false: they plan from
// scratch and leave the cache's counters alone.
func (db *DB) plan(st *statement, text string, cached bool) (engine.Node, error) {
	nq, normalized := sql.Normalize(text)
	st.ev.ShapeKey = text
	if normalized {
		st.ev.ShapeKey = nq.Key
	}
	cached = cached && normalized && db.plans != nil
	var ddlGen uint64
	if cached {
		// Load the DDL generation before the lookup: if a CREATE TABLE lands
		// between here and Put, the entry is stored under the old generation
		// and the next lookup discards it.
		ddlGen = db.ddlGen.Load()
		csp := st.tr.Begin(obs.KindPhase, "plan-cache")
		node, hit := db.plans.Get(nq, db.cat, ddlGen)
		csp.End()
		if hit {
			st.ev.ParseMicros = time.Since(st.start).Microseconds()
			return node, nil
		}
	}
	psp := st.tr.Begin(obs.KindPhase, "parse")
	var stmt *sql.SelectStmt
	var err error
	if cached {
		stmt, err = sql.ParseNormalized(text, nq.Slots())
	} else {
		stmt, err = sql.Parse(text)
	}
	psp.End()
	st.ev.ParseMicros = time.Since(st.start).Microseconds()
	if err != nil {
		return nil, err
	}
	planStart := time.Now()
	lsp := st.tr.Begin(obs.KindPhase, "plan")
	node, err := sql.PlanWith(stmt, db.cat, db.sysTables)
	lsp.End()
	st.ev.PlanMicros = time.Since(planStart).Microseconds()
	if err != nil {
		return nil, err
	}
	if cached {
		db.plans.Put(nq, node, db.cat, ddlGen)
	}
	return node, nil
}

// execCtx builds the default execution context Run and Query share.
func (db *DB) execCtx() *engine.ExecCtx {
	return &engine.ExecCtx{
		Catalog:    db.cat,
		Cache:      db.cache,
		Snapshot:   db.cat.Snapshot(),
		Stats:      &storage.ScanStats{},
		MaxWorkers: db.maxWorkers,
	}
}

// execCtxFor is execCtx for a SQL statement: it records into tr and honours
// ctx's cancellation (a ctx that can never be cancelled is left out, so the
// per-row checks stay a nil test).
func (db *DB) execCtxFor(ctx context.Context, tr *obs.Trace) *engine.ExecCtx {
	ec := db.execCtx()
	ec.Trace = tr
	if ctx != nil && ctx.Done() != nil {
		ec.Ctx = ctx
	}
	return ec
}

// run executes a planned statement and emits its event: the shared tail of
// Query, Run and RunCtx.
func (db *DB) run(st *statement, node engine.Node, ec *engine.ExecCtx) (*Result, error) {
	res, err := db.execute(st, node, ec)
	db.finish(st, err)
	return res, err
}

// execute runs node and fills the event's execution half: class and shape
// id, exec time, result rows, the scan counters and the cpu/alloc
// attribution. It saves the stats snapshot behind LastQueryStats and hands
// back a shallow copy of the result with the per-query counters attached —
// concurrent callers each see their own Result.Stats instead of racing on
// the DB-wide accessor. The statement reads at a snapshot it pins for the
// whole execution, so no vacuum reclaims a row version it can see.
func (db *DB) execute(st *statement, node engine.Node, ec *engine.ExecCtx) (*Result, error) {
	ec.Snapshot = db.cat.Pin()
	defer db.cat.Unpin(ec.Snapshot)
	ev := &st.ev
	ev.Executed = true
	// SQL statements get full resource attribution: pprof labels on the
	// executing goroutines, allocation deltas, a class and a shape identity.
	// Hand-built plans (Run/RunCtx) skip it — they have no query text to
	// shape-key and the warm-scan allocation budget holds them to the bare
	// execution path (label sets and snapshots both allocate).
	attributed := ev.SQL != ""
	var before obs.ResourceSnapshot
	if attributed {
		ev.Class = engine.Classify(node)
		ev.ShapeID = obs.ShapeID(ev.ShapeKey)
		before = obs.TakeResourceSnapshot()
	}
	execStart := time.Now()
	esp := st.tr.Begin(obs.KindPhase, "execute")
	var rel *engine.Relation
	var err error
	if attributed {
		labelCtx := context.Background()
		if ec.Ctx != nil {
			labelCtx = ec.Ctx
		}
		// pprof.Do tags this goroutine — and, by inheritance, every
		// worker the plan spawns — for the duration of the execution, so CPU
		// samples anywhere in the plan carry the query's identity.
		pprof.Do(labelCtx, pprof.Labels(
			"query_id", "q"+strconv.FormatInt(ev.Seq, 10),
			"shape", ev.ShapeID,
			"session", ev.Session,
		), func(context.Context) {
			rel, err = node.Execute(ec)
		})
	} else {
		rel, err = node.Execute(ec)
	}
	esp.End()
	exec := time.Since(execStart)
	if attributed {
		ev.AllocObjects, ev.AllocBytes = obs.TakeResourceSnapshot().Sub(before)
	}
	snap := ec.Stats.Snapshot()
	ev.ExecMicros = exec.Microseconds()
	// Attributed CPU: the coordinator's exec wall already contains every
	// serial phase and its own share of parallel ones; workers add only the
	// busy time beyond the coordinator's wait (see ScanStats.WorkerExtraNanos).
	ev.CPUMicros = (exec + time.Duration(snap.WorkerExtraNanos)).Microseconds()
	ev.RowsScanned = snap.RowsScanned
	ev.RowsQualified = snap.RowsQualified
	ev.RowsDecoded = snap.RowsDecoded
	ev.BlocksAccessed = snap.BlocksAccessed
	ev.BlocksDecoded = snap.BlocksDecoded
	ev.BlocksKernel = snap.BlocksKernel
	ev.BlocksPrunedZoneMap = snap.BlocksSkipped
	ev.BlocksPrunedCache = snap.BlocksPrunedCache
	ev.CacheHits = snap.CacheHits
	ev.CacheMisses = snap.CacheMisses
	ev.Morsels = snap.Morsels
	ev.WorkerMicros = snap.WorkerNanos / 1e3
	ev.CacheHit = snap.CacheHits > 0
	if err != nil {
		return nil, err
	}
	ev.Rows = int64(rel.NumRows())
	db.mu.Lock()
	db.last = snap
	db.mu.Unlock()
	// Shallow copy: node results can be shared (Materialized plans), so the
	// per-query fields must never be written onto the node's relation.
	out := *rel
	out.Stats = snap
	out.Wall = time.Since(st.start)
	return &out, nil
}

// finish closes a statement — wall time, the slow flag (the one comparison
// against the slow-query threshold) and the error — and emits its event.
// Statements that failed before execution finish here too, with Executed
// unset.
func (db *DB) finish(st *statement, err error) {
	wall := time.Since(st.start)
	st.ev.WallMicros = wall.Microseconds()
	st.ev.Slow = db.slowQuery > 0 && wall >= db.slowQuery
	if err != nil {
		st.ev.Error = err.Error()
	}
	db.emit(&st.ev, st.tr)
}

// emit hands a finished statement's event to every sink, in order. The
// trace store decides first because it sets ev.Retained, which the sinks
// after it read: exemplars only ever point at traces that were kept.
// Statements that never executed (parse and plan failures) stop after the
// log. Hand-built plans (no text, so no class or shape) reach the log and
// the pushed metrics only — no SLO sample, no ledger row, no log line.
func (db *DB) emit(ev *obs.QueryEvent, tr *obs.Trace) {
	handBuilt := ev.SQL == ""
	db.traces.Offer(ev, tr)
	db.qlog.Append(ev)
	if ev.Executed {
		db.metrics.Load().record(ev)
		if !handBuilt {
			db.slo.Observe(ev.Class, ev.CacheHit, ev.Wall(), ev.Seq, ev.Retained)
			db.shapes.Observe(ev)
		}
	}
	if db.logger == nil || handBuilt || (ev.Error == "" && !ev.Slow) {
		return
	}
	attrs := []any{
		"sql", ev.SQL, "class", ev.Class, "shape_id", ev.ShapeID, "slow", ev.Slow,
		"wall_us", ev.WallMicros, "cpu_us", ev.CPUMicros,
		"rows_scanned", ev.RowsScanned, "cache_hits", ev.CacheHits,
		"trace_retained", ev.Retained,
	}
	// query_id and trace_id are the same value (retained traces are keyed
	// by pc.query_log.seq), so both spellings are greppable and joinable.
	log := db.logger.With("query_id", ev.Seq, "trace_id", ev.Seq)
	if ev.Error != "" {
		log.Error("query failed", append(attrs, "error", ev.Error)...)
		return
	}
	log.Warn("slow query", attrs...)
}

// Run executes a prepared plan.
func (db *DB) Run(node engine.Node) (*Result, error) {
	st := db.begin(context.Background(), "")
	return db.run(&st, node, db.execCtx())
}

// RunCtx executes a plan with a caller-provided execution context (the
// benchmark harness uses this for ablation switches). Zero-valued fields are
// defaulted from the database: catalog, stats and MaxWorkers. The snapshot
// is always the statement's own, pinned as in Run.
func (db *DB) RunCtx(node engine.Node, ec *engine.ExecCtx) (*Result, error) {
	if ec.Catalog == nil {
		ec.Catalog = db.cat
	}
	if ec.Stats == nil {
		ec.Stats = &storage.ScanStats{}
	}
	if ec.MaxWorkers == 0 {
		ec.MaxWorkers = db.maxWorkers
	}
	st := db.begin(context.Background(), "")
	return db.run(&st, node, ec)
}

// explainRecorded is EXPLAIN's path through Query: plan only, never execute.
// Parse and plan failures are recorded in pc.query_log under displaySQL —
// the full statement the client sent, EXPLAIN prefix included — exactly like
// any other failed query; successful EXPLAINs execute nothing and emit no
// event.
func (db *DB) explainRecorded(ctx context.Context, displaySQL, rest string) (string, error) {
	st := db.begin(ctx, displaySQL)
	node, err := db.plan(&st, rest, false)
	if err != nil {
		db.finish(&st, err)
		return "", err
	}
	return engine.Explain(node), nil
}

// explainAnalyze is Query's EXPLAIN ANALYZE path: rest is planned, shaped
// and executed like the plain statement, displaySQL (the full statement,
// prefix included) is the text the event carries, and ctx labels and cancels
// the execution like QueryCtx. The rendered span tree covers the
// parse/plan/execute phases, every plan operator with its wall time and
// cardinalities, scans with their block-elimination breakdown (zone maps vs
// predicate cache) and cache outcome, and cache/slice events beneath the
// scans that produced them; a totals line mirrors LastQueryStats. The live
// trace is rendered before the event is emitted, because an admitted trace's
// spans move into the trace store.
func (db *DB) explainAnalyze(ctx context.Context, displaySQL, rest string) (string, error) {
	st := db.begin(ctx, displaySQL)
	st.tr = obs.NewTrace()
	node, err := db.plan(&st, rest, false)
	if err != nil {
		db.finish(&st, err)
		return "", err
	}
	rel, err := db.execute(&st, node, db.execCtxFor(ctx, st.tr))
	var b strings.Builder
	if err == nil {
		snap := rel.Stats
		b.WriteString(engine.RenderAnalyze(st.tr))
		fmt.Fprintf(&b, "result: %d rows\n", rel.NumRows())
		fmt.Fprintf(&b, "totals: rows scanned=%d qualified=%d decoded=%d; blocks accessed=%d decoded=%d kernel(encoded)=%d pruned(zonemap)=%d pruned(cache)=%d; cache hits=%d misses=%d\n",
			snap.RowsScanned, snap.RowsQualified, snap.RowsDecoded,
			snap.BlocksAccessed, snap.BlocksDecoded, snap.BlocksKernel,
			snap.BlocksSkipped, snap.BlocksPrunedCache, snap.CacheHits, snap.CacheMisses)
	}
	db.finish(&st, err)
	return b.String(), err
}

// sessionKey is the context key ContextWithSession stores the session label
// under.
type sessionKey struct{}

// ContextWithSession returns a context whose queries are attributed to the
// given session label (the network server stamps "s<id>" per connection).
// The label appears as the session pprof label and is bounded-cardinality by
// construction: one value per connection, not per query.
func ContextWithSession(ctx context.Context, session string) context.Context {
	return context.WithValue(ctx, sessionKey{}, session)
}

// sessionFromCtx extracts the session label ("" when none).
func sessionFromCtx(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if s, ok := ctx.Value(sessionKey{}).(string); ok {
		return s
	}
	return ""
}

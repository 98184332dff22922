package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	predcache "github.com/predcache/predcache"
	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/sql"
	"github.com/predcache/predcache/internal/storage"
)

// span is one timed call into a layer's public API, recorded by this
// harness (spans inside the program are a later change). Spans of one traced
// query share Query; Parent is the ID of the span that explains this one, or
// -1 for a span outside the breakdown tree.
type span struct {
	Workload string `json:"workload"`
	Query    int    `json:"query"`
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the pass ends.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

// reserve allocates a span that begin starts later: the root of a query's
// tree is measured last, after the child spans that explain it.
func (t *tracer) reserve(query int, name string, parent int) int {
	t.spans = append(t.spans, span{Workload: t.workload, Query: query, ID: len(t.spans), Name: name, Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) start(id int) { t.spans[id].StartNS = time.Since(t.epoch).Nanoseconds() }

func (t *tracer) begin(query int, name string, parent int) int {
	id := t.reserve(query, name, parent)
	t.start(id)
	return id
}

// end closes the span and returns its duration in microseconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id]
	s.EndNS = time.Since(t.epoch).Nanoseconds()
	return float64(s.EndNS-s.StartNS) / 1e3
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names. The tree under rootSpan is the breakdown of one warm query.
const (
	rootSpan      = "predcache.query"
	firstSpan     = "predcache.query.first" // the state-advancing execution; outside the tree
	parsePlanSpan = "sql.parse_plan"        // harness plan-cache miss; outside the tree
	normalizeSpan = "sql.normalize"
	planGetSpan   = "sql.plancache_get"
	execSpan      = "engine.exec"
	scanSpan      = "engine.scan"
	joinSpan      = "engine.join"
	aggSpan       = "engine.agg"
	otherSpan     = "engine.other"
	bindSpan      = "expr.bind"
	lookupSpan    = "core.lookup"
)

// breakdownRow is one line of the "where the microseconds go" table: the
// mean self time of a span name over the traced warm queries. The rows sum
// to the mean duration of the root span.
type breakdownRow struct {
	Name   string  `json:"name"`
	What   string  `json:"what"`
	MeanUS float64 `json:"mean_us"`
	Share  float64 `json:"share"`
}

// breakdownOrder fixes the row order and says what each row's self time is.
var breakdownOrder = []struct{ span, row, what string }{
	{normalizeSpan, normalizeSpan, "sql.Normalize"},
	{planGetSpan, planGetSpan, "PlanCache.Get hit: clone and bind"},
	{bindSpan, bindSpan, "expr.Bind + PlanKernels per scan"},
	{lookupSpan, lookupSpan, "Cache.Best per scan"},
	{scanSpan, "engine.scan (self)", "Scan.Execute minus bind and lookup: zone maps, kernels, decode, gather"},
	{joinSpan, joinSpan, "Join.Execute over materialized inputs"},
	{aggSpan, aggSpan, "Agg.Execute over a materialized input"},
	{otherSpan, otherSpan, "Project, Filter, Sort, Limit, Union over materialized inputs"},
	{execSpan, "trace.unattributed", "DB.Run minus the operator spans"},
	{rootSpan, "predcache.tail", "DB.Query minus normalize, plan-cache get and DB.Run: query log, trace retention, SLO, shape ledger, pprof labels, alloc snapshots"},
}

// scanColumn identifies a column some traced scan evaluated a kernel on.
type scanColumn struct {
	table string
	col   int
}

// tracedPass replays a fixed prefix of a workload's stream in-process on its
// own database and times calls into each layer's public functions.
type tracedPass struct {
	spec workloadSpec
	db   *predcache.DB
	cat  *storage.Catalog
	tr   *tracer
	// plans is the harness's own plan cache over the workload's catalog: the
	// DB's is private, and timing Get needs a handle.
	plans *sql.PlanCache
	nq    int

	firstUS, missPenaltyUS, untracedUS []float64
	parsePlanUS                        []float64
	insertUS, deleteUS, updateUS       []float64
	vacuumMS                           []float64
	stats                              storage.ScanStatsSnapshot
	wallNS                             int64
	firsts                             int
	planHits, planMisses, planInvalid  int64
	failed                             int
	firstErr                           string
	warmSQL                            []string // the last traced reads, for the end-of-pass measurements
	kernels                            map[scanColumn]storage.IntPred
	kernelOrder                        []scanColumn
	// insertTable and insertKernels are the first traced scan that had
	// kernels: the predicate whose qualifying ranges cacheInsertUS inserts.
	insertTable   string
	insertKernels []expr.KernelLeaf
}

func (tp *tracedPass) fail(err error) {
	tp.failed++
	if tp.firstErr == "" {
		tp.firstErr = err.Error()
	}
}

func (tp *tracedPass) execCtx() *engine.ExecCtx {
	return &engine.ExecCtx{
		Catalog:  tp.cat,
		Cache:    tp.db.PredicateCache(),
		Snapshot: tp.cat.Snapshot(),
		Stats:    &storage.ScanStats{},
		Parallel: true,
	}
}

// read traces one read. Every read gets the state-advancing execution, whose
// Result.Stats feed the per-query counts; full additionally measures the
// layers on the now-warm state and a second execution that they explain.
func (tp *tracedPass) read(query string, full bool) {
	qi := tp.nq
	tp.nq++
	pc0 := tp.db.PlanCacheStats()
	id := tp.tr.begin(qi, firstSpan, -1)
	res, err := tp.db.Query(query)
	firstUS := tp.tr.end(id)
	if err != nil {
		tp.fail(err)
		return
	}
	pc1 := tp.db.PlanCacheStats()
	tp.planHits += pc1.Hits - pc0.Hits
	tp.planMisses += pc1.Misses - pc0.Misses
	tp.planInvalid += pc1.Invalidations - pc0.Invalidations
	tp.firsts++
	tp.firstUS = append(tp.firstUS, firstUS)
	tp.wallNS += res.Wall.Nanoseconds()
	addStats(&tp.stats, res.Stats)
	if !full {
		return
	}
	warmUS, err := tp.layers(qi, query)
	if err != nil {
		tp.fail(err)
		return
	}
	if res.Stats.CacheMisses > 0 {
		// The first execution built cache entries; the warm repeat is the
		// same query without that work.
		tp.missPenaltyUS = append(tp.missPenaltyUS, firstUS-warmUS)
	}
	t0 := time.Now()
	if _, err := tp.db.Query(query); err != nil {
		tp.fail(err)
		return
	}
	tp.untracedUS = append(tp.untracedUS, float64(time.Since(t0).Nanoseconds())/1e3)
	tp.warmSQL = append(tp.warmSQL, query)
}

func addStats(dst *storage.ScanStatsSnapshot, s storage.ScanStatsSnapshot) {
	dst.RowsScanned += s.RowsScanned
	dst.BlocksAccessed += s.BlocksAccessed
	dst.BlocksSkipped += s.BlocksSkipped
	dst.BlocksPrunedCache += s.BlocksPrunedCache
	dst.RowsDecoded += s.RowsDecoded
	dst.BlocksKernel += s.BlocksKernel
	dst.Morsels += s.Morsels
	dst.WorkerNanos += s.WorkerNanos
	dst.CacheHits += s.CacheHits
	dst.CacheMisses += s.CacheMisses
}

// plan returns an executable plan for query through the harness plan cache,
// parsing and planning on a miss the way DB.Query does.
func (tp *tracedPass) plan(qi int, query string, nq *sql.NormalizedQuery) (engine.Node, error) {
	if node, hit := tp.plans.Get(nq, tp.cat, 0); hit {
		return node, nil
	}
	id := tp.tr.begin(qi, parsePlanSpan, -1)
	stmt, err := sql.ParseNormalized(query, nq.Slots())
	if err != nil {
		return nil, err
	}
	node, err := sql.Plan(stmt, tp.cat)
	if err != nil {
		return nil, err
	}
	tp.parsePlanUS = append(tp.parsePlanUS, tp.tr.end(id))
	tp.plans.Put(nq, node, tp.cat, 0)
	return node, nil
}

// layers measures, on the warm state the first execution left, each layer's
// share of this query, then the warm DB.Query those child spans explain,
// whose duration it returns.
func (tp *tracedPass) layers(qi int, query string) (float64, error) {
	root := tp.tr.reserve(qi, rootSpan, -1)

	id := tp.tr.begin(qi, normalizeSpan, root)
	nq, ok := sql.Normalize(query)
	tp.tr.end(id)
	if !ok {
		return 0, fmt.Errorf("not normalizable: %s", query)
	}
	// Make sure the template is cached, then time a hit. A statement the
	// plan cache refuses keeps its miss timing under the same name.
	if _, err := tp.plan(qi, query, nq); err != nil {
		return 0, err
	}
	id = tp.tr.begin(qi, planGetSpan, root)
	node, hit := tp.plans.Get(nq, tp.cat, 0)
	tp.tr.end(id)
	if !hit {
		var err error
		if node, err = tp.plan(qi, query, nq); err != nil {
			return 0, err
		}
	}

	exec := tp.tr.begin(qi, execSpan, root)
	_, err := tp.db.Run(node)
	tp.tr.end(exec)
	if err != nil {
		return 0, err
	}

	// Operator self times: execute a second copy of the plan bottom-up.
	copyNode, err := tp.plan(qi, query, nq)
	if err != nil {
		return 0, err
	}
	if _, err := tp.operator(qi, copyNode, exec, tp.execCtx()); err != nil {
		return 0, err
	}

	tp.tr.start(root)
	_, err = tp.db.Query(query)
	return tp.tr.end(root), err
}

// ran stands in for an operator that already ran: it returns the relation
// the operator produced and keeps the operator's cache descriptor, so a
// parent join still keys its semi-join cache entries the same way.
type ran struct {
	engine.Node
	rel *engine.Relation
}

func (r ran) Execute(*engine.ExecCtx) (*engine.Relation, error) { return r.rel, nil }

// operator executes n's inputs first, replaces them with their results, and
// times n alone, so each operator span excludes its inputs. Two kinds of
// input stay attached to their parent, because the engine executes them as
// part of it: Filter nodes directly under an Agg or on a Join's probe side
// (the parent streams their predicates per morsel), and the probe-side chain
// of a Join that pushes a semi-join filter down to a base scan (the filter
// exists only inside the Join). An engine.join span therefore contains its
// semi-join-filtered probe scan; engine.scan spans are the scans that run as
// operators of their own.
func (tp *tracedPass) operator(qi int, n engine.Node, parent int, ec *engine.ExecCtx) (*engine.Relation, error) {
	name := otherSpan
	var err error
	switch t := n.(type) {
	case *engine.Scan:
		return tp.scan(qi, t, parent, ec)
	case *engine.Join:
		j := *t
		if j.Right, err = tp.input(qi, t.Right, parent, ec); err != nil {
			return nil, err
		}
		if pushesSemiJoin(t) {
			j.Left, err = tp.probeChain(qi, t.Left, parent, ec)
		} else {
			j.Left, err = tp.underFilters(qi, t.Left, parent, ec)
		}
		if err != nil {
			return nil, err
		}
		n, name = &j, joinSpan
	case *engine.Agg:
		a := *t
		if a.Input, err = tp.underFilters(qi, t.Input, parent, ec); err != nil {
			return nil, err
		}
		n, name = &a, aggSpan
	case *engine.Project:
		p := *t
		if p.Input, err = tp.input(qi, t.Input, parent, ec); err != nil {
			return nil, err
		}
		n = &p
	case *engine.Filter:
		f := *t
		if f.Input, err = tp.input(qi, t.Input, parent, ec); err != nil {
			return nil, err
		}
		n = &f
	case *engine.Sort:
		s := *t
		if s.Input, err = tp.input(qi, t.Input, parent, ec); err != nil {
			return nil, err
		}
		n = &s
	case *engine.Limit:
		l := *t
		if l.Input, err = tp.input(qi, t.Input, parent, ec); err != nil {
			return nil, err
		}
		n = &l
	case *engine.Union:
		u := engine.Union{Inputs: make([]engine.Node, len(t.Inputs))}
		for i, in := range t.Inputs {
			if u.Inputs[i], err = tp.input(qi, in, parent, ec); err != nil {
				return nil, err
			}
		}
		n = &u
	}
	id := tp.tr.begin(qi, name, parent)
	rel, err := n.Execute(ec)
	tp.tr.end(id)
	return rel, err
}

// input runs n as an operator of its own and returns its stand-in.
func (tp *tracedPass) input(qi int, n engine.Node, parent int, ec *engine.ExecCtx) (engine.Node, error) {
	rel, err := tp.operator(qi, n, parent, ec)
	return ran{Node: n, rel: rel}, err
}

// underFilters replaces the first non-Filter operator under n with its
// result and keeps the Filter chain above it for the parent to stream.
func (tp *tracedPass) underFilters(qi int, n engine.Node, parent int, ec *engine.ExecCtx) (engine.Node, error) {
	f, ok := n.(*engine.Filter)
	if !ok {
		return tp.input(qi, n, parent, ec)
	}
	c := *f
	var err error
	c.Input, err = tp.underFilters(qi, f.Input, parent, ec)
	return &c, err
}

// pushesSemiJoin reports whether executing j may push a semi-join filter
// into a base scan: j or a join further down its probe side has pushdown
// enabled on a single key, and the probe side reaches a Scan through inner
// or semi joins and filters only (the conditions Join.Execute checks).
func pushesSemiJoin(j *engine.Join) bool {
	pushes := false
	var n engine.Node = j
	for {
		switch t := n.(type) {
		case *engine.Scan:
			return pushes
		case *engine.Filter:
			n = t.Input
		case *engine.Join:
			if t.Type != engine.InnerJoin && t.Type != engine.SemiJoin {
				return false
			}
			pushes = pushes || (t.PushSemiJoin && len(t.LeftKeys) == 1)
			n = t.Left
		default:
			return false
		}
	}
}

// probeChain prepares the probe side of a join that pushes semi-join
// filters: every build side along the chain runs as an operator of its own,
// the joins, filters and the base scan of the chain stay live.
func (tp *tracedPass) probeChain(qi int, n engine.Node, parent int, ec *engine.ExecCtx) (engine.Node, error) {
	var err error
	switch t := n.(type) {
	case *engine.Filter:
		f := *t
		f.Input, err = tp.probeChain(qi, t.Input, parent, ec)
		return &f, err
	case *engine.Join:
		j := *t
		if j.Right, err = tp.input(qi, t.Right, parent, ec); err != nil {
			return nil, err
		}
		j.Left, err = tp.probeChain(qi, t.Left, parent, ec)
		return &j, err
	}
	return n, nil // the base scan
}

// scan times Scan.Execute, then repeats under it the two calls into other
// layers that every scan makes before it touches a block: binding the
// predicate (expr) and looking the scan up in the predicate cache (core).
func (tp *tracedPass) scan(qi int, s *engine.Scan, parent int, ec *engine.ExecCtx) (*engine.Relation, error) {
	id := tp.tr.begin(qi, scanSpan, parent)
	rel, err := s.Execute(ec)
	tp.tr.end(id)
	if err != nil {
		return nil, err
	}
	tbl, ok := tp.cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %s", s.Table)
	}
	var pred expr.Pred = expr.TruePred{}
	if s.Filter != nil {
		pred = s.Filter
	}
	b := tp.tr.begin(qi, bindSpan, id)
	bound, err := expr.Bind(pred, tbl)
	var plan *expr.ScanPlan
	if err == nil {
		plan = expr.PlanKernels(bound)
	}
	tp.tr.end(b)
	if err != nil {
		return nil, err
	}
	if cache := tp.db.PredicateCache(); cache != nil {
		l := tp.tr.begin(qi, lookupSpan, id)
		cache.Best([]string{core.Key{Table: s.Table, Predicate: pred.Key()}.String()})
		tp.tr.end(l)
	}
	if tp.insertKernels == nil {
		tp.insertTable, tp.insertKernels = s.Table, plan.Kernels
	}
	for _, k := range plan.Kernels {
		sc := scanColumn{table: s.Table, col: k.Col}
		if _, seen := tp.kernels[sc]; !seen {
			tp.kernels[sc] = k.Pred
			tp.kernelOrder = append(tp.kernelOrder, sc)
		}
	}
	return rel, nil
}

// dml times one mutation through the DB's public DML calls.
func (tp *tracedPass) dml(ex *dbExecutor, o op) {
	t0 := time.Now()
	_, err := ex.exec(o)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	if err != nil {
		tp.fail(err)
		return
	}
	switch o.kind {
	case opInsert:
		tp.insertUS = append(tp.insertUS, us)
	case opDelete:
		tp.deleteUS = append(tp.deleteUS, us)
	case opUpdate:
		tp.updateUS = append(tp.updateUS, us)
	case opVacuum:
		tp.vacuumMS = append(tp.vacuumMS, us/1e3)
	}
}

// runTraced is the traced pass of one workload.
func runTraced(spec workloadSpec, sz sizes, cfg runConfig, rep *report, log io.Writer) error {
	in, err := setUp(spec, sz, cfg.Seed)
	if err != nil {
		return err
	}
	defer in.tearDown()
	tp := &tracedPass{
		spec: spec, db: in.db, cat: in.db.Catalog(),
		tr:      &tracer{workload: spec.name, epoch: time.Now()},
		plans:   sql.NewPlanCache(0),
		kernels: map[scanColumn]storage.IntPred{},
	}
	// Continue session 0's stream where warm-up left it, in-process.
	st := in.executors[0].stream()
	direct := &dbExecutor{db: in.db}
	ops, every := spec.trace(sz)
	reads := 0
	for i := 0; i < ops; i++ {
		o := st.next()
		if o.kind != opRead {
			tp.dml(direct, o)
			continue
		}
		tp.read(o.sql, reads%every == 0)
		reads++
	}
	cacheStats := in.db.CacheStats()
	fmt.Fprintf(log, "%s: traced %d operations, %d reads with layer spans\n", spec.name, ops, len(tp.warmSQL))
	if len(tp.warmSQL) == 0 {
		return fmt.Errorf("%s: traced pass ran no read (%s)", spec.name, tp.firstErr)
	}

	m := map[string]float64{}
	tp.spanMetrics(m, rep)
	tp.countMetrics(m, cacheStats)
	if err := tp.storageMetrics(m); err != nil {
		return err
	}
	if err := tp.serverMetrics(m, in); err != nil {
		return err
	}
	m["predcache.allocs_per_query"] = tp.allocsPerQuery()

	for _, d := range perLayerMetrics {
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("traced pass did not produce %s", d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	rep.Attempted, rep.Failed, rep.FirstErr = ops, tp.failed, tp.firstErr
	rep.Info["trace_spans"] = metric{Value: float64(len(tp.tr.spans)), Unit: "count"}
	rep.Info["trace_layered_reads"] = metric{Value: float64(len(tp.warmSQL)), Unit: "count"}
	rep.Info["trace_miss_samples"] = metric{Value: float64(len(tp.missPenaltyUS)), Unit: "count"}
	rep.Info["trace_vacuums"] = metric{Value: float64(len(tp.vacuumMS)), Unit: "count"}
	if cfg.TraceDir != "" {
		path := filepath.Join(cfg.TraceDir, "trace-"+spec.name+".jsonl")
		if err := tp.tr.write(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(log, "%s: wrote %d spans to %s\n", spec.name, len(tp.tr.spans), path)
	}
	return nil
}

// spanMetrics derives the timing metrics and the breakdown table from the
// spans: per traced query, a name's duration is the sum of its spans and a
// span's self time is its duration minus its children's.
func (tp *tracedPass) spanMetrics(m map[string]float64, rep *report) {
	spans := tp.tr.spans
	childUS := make([]float64, len(spans))
	dur := func(s *span) float64 { return float64(s.EndNS-s.StartNS) / 1e3 }
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			childUS[p] += dur(&spans[i])
		}
	}
	type perQuery struct{ dur, self map[string]float64 }
	queries := map[int]*perQuery{}
	for i := range spans {
		s := &spans[i]
		if s.Parent < 0 && s.Name != rootSpan {
			continue // first executions and parse+plan: outside the tree
		}
		q := queries[s.Query]
		if q == nil {
			q = &perQuery{dur: map[string]float64{}, self: map[string]float64{}}
			queries[s.Query] = q
		}
		q.dur[s.Name] += dur(s)
		q.self[s.Name] += dur(s) - childUS[i]
	}
	durs := map[string][]float64{}
	selfSum := map[string]float64{}
	for _, q := range queries {
		for name, v := range q.dur {
			durs[name] = append(durs[name], v)
		}
		for name, v := range q.self {
			selfSum[name] += v
		}
	}
	n := float64(len(queries))
	total := mean(durs[rootSpan])
	for _, row := range breakdownOrder {
		v := selfSum[row.span] / n
		rep.Breakdown = append(rep.Breakdown, breakdownRow{Name: row.row, What: row.what, MeanUS: v, Share: v / total})
	}
	rep.Breakdown = append(rep.Breakdown, breakdownRow{Name: rootSpan, What: "warm DB.Query: the sum of the rows above", MeanUS: total, Share: 1})

	m["sql.normalize_us"] = median(durs[normalizeSpan])
	m["sql.plancache_get_us"] = median(durs[planGetSpan])
	m["sql.parse_plan_us"] = median(tp.parsePlanUS)
	m["expr.bind_us"] = median(durs[bindSpan])
	m["core.lookup_us"] = median(durs[lookupSpan])
	m["core.miss_penalty_us"] = median(tp.missPenaltyUS)
	m["engine.exec_us"] = median(durs[execSpan])
	m["engine.scan_us"] = median(durs[scanSpan])
	m["engine.join_us"] = median(durs[joinSpan])
	m["engine.agg_us"] = median(durs[aggSpan])
	m["engine.other_us"] = median(durs[otherSpan])
	m["predcache.query_us"] = median(durs[rootSpan])
	var tails []float64
	for _, q := range queries {
		tails = append(tails, q.self[rootSpan])
	}
	m["predcache.tail_us"] = median(tails)
	m["trace.unattributed_us"] = selfSum[execSpan] / n
	m["trace.overhead_pct"] = 100 * (median(durs[rootSpan]) - median(tp.untracedUS)) / median(tp.untracedUS)
	m["predcache.insert_us"] = median(tp.insertUS)
	m["predcache.delete_us"] = median(tp.deleteUS)
	m["predcache.update_us"] = median(tp.updateUS)
	m["storage.vacuum_ms"] = median(tp.vacuumMS)
	m["storage.vacuum_max_ms"] = 0
	if len(tp.vacuumMS) > 0 {
		m["storage.vacuum_max_ms"] = slices.Max(tp.vacuumMS)
	}
	rep.Info["predcache.query_first_us"] = metric{Value: median(tp.firstUS), Unit: "us"}
}

// countMetrics reports program-side counts: per-query means of the first
// executions' Result.Stats, and the caches' own counters.
func (tp *tracedPass) countMetrics(m map[string]float64, cs core.Stats) {
	n := float64(tp.firsts)
	m["engine.rows_scanned"] = float64(tp.stats.RowsScanned) / n
	m["engine.blocks_accessed"] = float64(tp.stats.BlocksAccessed) / n
	m["engine.blocks_pruned_zonemap"] = float64(tp.stats.BlocksSkipped) / n
	m["engine.blocks_pruned_cache"] = float64(tp.stats.BlocksPrunedCache) / n
	m["engine.rows_decoded"] = float64(tp.stats.RowsDecoded) / n
	m["engine.blocks_kernel"] = float64(tp.stats.BlocksKernel) / n
	m["engine.morsels"] = float64(tp.stats.Morsels) / n
	m["engine.parallel_efficiency"] = 0
	if tp.wallNS > 0 {
		m["engine.parallel_efficiency"] = float64(tp.stats.WorkerNanos) / (float64(tp.wallNS) * float64(runtime.GOMAXPROCS(0)))
	}
	m["core.hit_rate"] = 0
	if lookups := tp.stats.CacheHits + tp.stats.CacheMisses; lookups > 0 {
		m["core.hit_rate"] = float64(tp.stats.CacheHits) / float64(lookups)
	}
	m["core.entries"] = float64(cs.Entries)
	m["core.cache_bytes"] = float64(cs.MemBytes)
	m["core.evictions"] = float64(cs.Evictions)
	m["core.extends"] = float64(cs.Extends)
	m["core.invalidations"] = float64(cs.Invalidations)
	m["sql.plancache_hit_rate"] = 0
	if gets := tp.planHits + tp.planMisses; gets > 0 {
		m["sql.plancache_hit_rate"] = float64(tp.planHits) / float64(gets)
	}
	m["sql.plancache_invalidations"] = float64(tp.planInvalid)
}

// storageMetrics times the storage layer's public calls on the workload's
// real columns: the encoded-domain kernels of every (table, column) a traced
// scan used one on, a full decode of the largest table, an append of that
// table's first rows to an empty copy, and a cache insert of the ranges one
// traced scan's kernels produce.
func (tp *tracedPass) storageMetrics(m map[string]float64) error {
	var largest *storage.Table
	rows, bytes := 0, 0
	for _, name := range tp.cat.TableNames() {
		tbl, _ := tp.cat.Table(name)
		rows += tbl.NumRows()
		bytes += tbl.MemBytes()
		if largest == nil || tbl.NumRows() > largest.NumRows() {
			largest = tbl
		}
	}
	m["storage.bytes_per_row"] = float64(bytes) / float64(rows)

	// Kernels, by the encoding the column's blocks mostly have.
	type acc struct{ ns, rows float64 }
	classes := map[string]*acc{"rle": {}, "for": {}, "dict": {}}
	var dst []storage.RowRange
	for _, sc := range tp.kernelOrder {
		tbl, _ := tp.cat.Table(sc.table)
		st := tbl.StorageStats()[sc.col]
		class := "for"
		switch {
		case st.Type == storage.String:
			class = "dict"
		case st.RLEBlocks > st.FORBlocks:
			class = "rle"
		}
		pred := tp.kernels[sc]
		unlock := tbl.RLockScan()
		for si := 0; si < tbl.NumSlices(); si++ {
			col := tbl.Slice(si).Column(sc.col)
			left := tbl.Slice(si).NumRows()
			for blk := 0; left > 0; blk++ {
				n := min(left, storage.BlockSize)
				left -= n
				full := [1]storage.RowRange{{Start: 0, End: n}}
				t0 := time.Now()
				out, ok := col.EvalPredRanges(blk, &pred, full[:], dst[:0])
				ns := time.Since(t0).Nanoseconds()
				dst = out
				if ok {
					classes[class].ns += float64(ns)
					classes[class].rows += float64(n)
				}
			}
		}
		unlock()
	}
	for class, a := range classes {
		m["storage.kernel_"+class+"_ns_per_row"] = 0
		if a.rows > 0 {
			m["storage.kernel_"+class+"_ns_per_row"] = a.ns / a.rows
		}
	}

	// Decode: every column of the largest table, block by block.
	ints := make([]int64, storage.BlockSize)
	floats := make([]float64, storage.BlockSize)
	var decodeNS, decoded float64
	unlock := largest.RLockScan()
	for si := 0; si < largest.NumSlices(); si++ {
		sl := largest.Slice(si)
		for ci := range largest.Schema() {
			col := sl.Column(ci)
			for blk := 0; blk < sl.NumBlocks(); blk++ {
				t0 := time.Now()
				var n int
				if largest.ColumnType(ci) == storage.Float64 {
					n = col.ReadFloatRange(blk, 0, storage.BlockSize, floats)
				} else {
					n = col.ReadIntRange(blk, 0, storage.BlockSize, ints)
				}
				decodeNS += float64(time.Since(t0).Nanoseconds())
				decoded += float64(n)
			}
		}
	}
	batch := firstRows(largest, 10_000)
	unlock()
	m["storage.decode_ns_per_row"] = decodeNS / decoded

	// Append: the batch into a fresh table of the same shape.
	var appendUS []float64
	for rep := 0; rep < 5; rep++ {
		scratch, err := storage.NewTable("scratch", largest.Schema(), largest.NumSlices())
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := scratch.Append(batch, 1); err != nil {
			return fmt.Errorf("append to scratch table: %w", err)
		}
		appendUS = append(appendUS, float64(time.Since(t0).Nanoseconds())/1e3/float64(batch.N)*1000)
	}
	m["storage.append_us_per_krow"] = median(appendUS)

	m["core.insert_us"] = tp.cacheInsertUS()
	return nil
}

// firstRows copies up to n rows from the front of tbl's first slice into a
// batch. The caller holds the table's scan lock.
func firstRows(tbl *storage.Table, n int) *storage.Batch {
	sl := tbl.Slice(0)
	n = min(n, sl.NumRows())
	schema := tbl.Schema()
	b := storage.NewBatch(schema)
	b.N = n
	ints := make([]int64, storage.BlockSize)
	floats := make([]float64, storage.BlockSize)
	for ci, def := range schema {
		col := sl.Column(ci)
		for blk := 0; blk*storage.BlockSize < n; blk++ {
			hi := min(storage.BlockSize, n-blk*storage.BlockSize)
			switch def.Type {
			case storage.Float64:
				col.ReadFloatRange(blk, 0, hi, floats)
				b.Cols[ci].Floats = append(b.Cols[ci].Floats, floats[:hi]...)
			case storage.String:
				col.ReadIntRange(blk, 0, hi, ints)
				for _, code := range ints[:hi] {
					b.Cols[ci].Strings = append(b.Cols[ci].Strings, tbl.Dict(ci).Value(code))
				}
			default:
				col.ReadIntRange(blk, 0, hi, ints)
				b.Cols[ci].Ints = append(b.Cols[ci].Ints, ints[:hi]...)
			}
		}
	}
	return b
}

// cacheInsertUS times Cache.Insert — the paper's build overhead — of the
// qualifying ranges of the first traced scan's kernel predicates (what that
// scan hands the cache on a miss, up to its residual predicate and row
// visibility), into a scratch cache with the DB's configuration and no budget.
func (tp *tracedPass) cacheInsertUS() float64 {
	cache := tp.db.PredicateCache()
	if cache == nil || len(tp.insertKernels) == 0 {
		return 0
	}
	tbl, _ := tp.cat.Table(tp.insertTable)
	perSlice := make([][]storage.RowRange, tbl.NumSlices())
	watermarks := make([]int, tbl.NumSlices())
	unlock := tbl.RLockScan()
	var spans, other []storage.RowRange
	for si := range perSlice {
		sl := tbl.Slice(si)
		watermarks[si] = sl.NumRows()
		for blk := 0; blk < sl.NumBlocks(); blk++ {
			base := blk * storage.BlockSize
			spans = append(spans[:0], storage.RowRange{Start: 0, End: min(storage.BlockSize, sl.NumRows()-base)})
			for ki := range tp.insertKernels {
				k := &tp.insertKernels[ki]
				if out, ok := sl.Column(k.Col).EvalPredRanges(blk, &k.Pred, spans, other[:0]); ok {
					spans, other = out, spans
				}
			}
			for _, r := range spans {
				perSlice[si] = storage.AppendRange(perSlice[si], base+r.Start, base+r.End)
			}
		}
	}
	unlock()
	cfg := cache.Config()
	cfg.MemBudget = 0
	scratch := core.NewCache(cfg)
	key := core.Key{Table: tp.insertTable, Predicate: "benchmark-insert-probe"}
	var us []float64
	for rep := 0; rep < 101; rep++ {
		t0 := time.Now()
		scratch.Insert(key, tbl, tbl.LayoutEpoch(), nil, perSlice, watermarks)
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us)
}

// serverMetrics measures the wire: \ping round trips, and the traced reads
// sent over TCP against the same reads through DB.QueryCtx, both warm.
func (tp *tracedPass) serverMetrics(m map[string]float64, in *instance) error {
	owned := in.srv == nil
	if owned {
		// mixed_dml runs in-process; its reads still have a wire cost.
		srvIn := &instance{spec: tp.spec, db: tp.db}
		if err := srvIn.serve(); err != nil {
			return err
		}
		defer srvIn.tearDown()
		in = srvIn
	}
	c, err := dialWire(in.srv.Addr())
	if err != nil {
		return err
	}
	defer c.close()
	var pingUS []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if err := c.ping(); err != nil {
			return err
		}
		pingUS = append(pingUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["server.ping_us"] = median(pingUS)

	// The session's side of the comparison: a cancellable context carrying
	// a session label, as session.execute builds for every statement.
	ctx, cancel := context.WithCancel(predcache.ContextWithSession(context.Background(), "s0"))
	defer cancel()
	queries := tp.warmSQL[max(0, len(tp.warmSQL)-200):]
	var diffUS []float64
	bytes := 0
	for _, q := range queries {
		if _, err := tp.db.QueryCtx(ctx, q); err != nil { // warm both timed executions alike
			return err
		}
		t0 := time.Now()
		_, n, err := c.query(q)
		wire := time.Since(t0)
		if err != nil {
			return err
		}
		bytes += n
		t0 = time.Now()
		if _, err := tp.db.QueryCtx(ctx, q); err != nil {
			return err
		}
		diffUS = append(diffUS, float64((wire-time.Since(t0)).Nanoseconds())/1e3)
	}
	m["server.overhead_us"] = median(diffUS)
	m["server.result_bytes_per_query"] = float64(bytes) / float64(len(queries))
	m["server.rejected"] = float64(in.srv.StatsNow().Rejected)
	return nil
}

// allocsPerQuery counts heap objects per warm in-process query.
func (tp *tracedPass) allocsPerQuery() float64 {
	queries := tp.warmSQL[max(0, len(tp.warmSQL)-200):]
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, q := range queries {
		if _, err := tp.db.Query(q); err != nil {
			tp.fail(err)
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(queries))
}

// printBreakdown prints the "where the microseconds go" table.
func printBreakdown(rep *report, out io.Writer) {
	fmt.Fprintf(out, "  -- where a warm %s query's microseconds go (mean self time over the traced reads)\n", rep.Workload)
	for _, r := range rep.Breakdown {
		fmt.Fprintf(out, "  %-22s %12.2f us %6.1f%%  %s\n", r.Name, r.MeanUS, r.Share*100, r.What)
	}
}

package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/obs"
	"github.com/predcache/predcache/internal/storage"
)

// ExecCtx carries everything a plan execution needs: the catalog, the
// predicate cache (may be nil to run without one), the MVCC snapshot, and
// the per-query scan counters.
type ExecCtx struct {
	Catalog  *storage.Catalog
	Cache    *core.Cache
	Snapshot uint64
	Stats    *storage.ScanStats
	// Ctx, when non-nil, cancels the execution: operators check it at their
	// prologues and inside row/block loops so a disconnected or cancelled
	// client's query stops consuming CPU promptly instead of running to
	// completion. A nil Ctx never cancels.
	Ctx context.Context
	// Trace records query-lifecycle spans (per-node execute, per-slice scan,
	// cache events) when non-nil; the disabled path costs one nil check per
	// instrumentation point.
	Trace *obs.Trace
	// MaxWorkers is the query's one degree of parallelism: the most workers
	// any operator — scans over slices, join build/probe and aggregation over
	// morsels — may run at once. Zero means GOMAXPROCS, 1 runs everything
	// inline on the caller; operators additionally never use more workers
	// than their input has morsels (or a scan has slices).
	MaxWorkers int
	// Serial is MaxWorkers = 1 under the name the reference oracles set
	// (benchmark/oracle.go, the equivalence tests).
	Serial bool
	// Parallel is ignored. It remains only because benchmark/trace.go sets it
	// and benchmark/ changes only in benchmark PRs; the next one removes it.
	Parallel bool
	// DisableSemiJoinCache keeps semi-join filters working at run time but
	// stops the cache from keying on them (the Figure 16 ablation).
	DisableSemiJoinCache bool
	// ForceCacheInsertOnly makes scans insert entries but never use them
	// (the Figure 15 build-overhead experiment).
	ForceCacheInsertOnly bool
	// DisableEncodedKernels forces the decode-then-filter path for every
	// block, bypassing the encoding-aware kernels (ablation and equivalence
	// testing).
	DisableEncodedKernels bool
}

// Cancelled returns a non-nil error once the execution's context has been
// cancelled, and nil otherwise (including when no context was attached).
// Operators call it at prologues and every few thousand rows/blocks inside
// hot loops; the no-context fast path is a single nil comparison.
func (ec *ExecCtx) Cancelled() error {
	if ec.Ctx == nil {
		return nil
	}
	select {
	case <-ec.Ctx.Done():
		return ec.Ctx.Err()
	default:
		return nil
	}
}

// cancelCheckRows is how many rows a hot loop processes between cancellation
// checks — frequent enough to stop within microseconds, rare enough that the
// check cost is unmeasurable.
const cancelCheckRows = 4096

// Node is a query plan operator producing a materialized relation.
type Node interface {
	Execute(ec *ExecCtx) (*Relation, error)
	// CacheDescriptor returns a canonical description of this subtree's
	// output for use inside predicate-cache keys (as the build side of a
	// semi-join, §4.4), plus the tables whose DML versions the description
	// depends on. ok is false when the subtree cannot be described.
	CacheDescriptor(ec *ExecCtx) (desc string, deps []core.BuildDep, ok bool)
}

// JoinType enumerates supported join types.
type JoinType uint8

const (
	InnerJoin JoinType = iota
	LeftOuterJoin
	SemiJoin
	AntiJoin
)

func (t JoinType) String() string {
	switch t {
	case InnerJoin:
		return "inner"
	case LeftOuterJoin:
		return "left"
	case SemiJoin:
		return "semi"
	default:
		return "anti"
	}
}

// Scan reads a base table, applying Filter and projecting Project columns
// (nil = all). It is the integration point for the predicate cache.
type Scan struct {
	Table   string
	Filter  expr.Pred
	Project []string
	// Alias prefixes output columns as "alias.col" when set (self-joins).
	Alias string
	// RowIDs makes output column 0 an Int64 column "rowid" holding each
	// output row's physical address, slice<<32 | row. DML sets it to find
	// the rows it mutates; the planner never does. The column decodes
	// nothing and counts toward no block or row counter. Alias does not
	// prefix it, so a non-empty Alias keeps it apart from a table column
	// named rowid, which would otherwise be a duplicate output column.
	RowIDs bool

	// runtimeSJ holds semi-join filters pushed down by a parent hash join
	// for the current execution (§4.4). Set by Join.Execute.
	runtimeSJ []*semiJoinFilter
}

// Join hash-joins Left (probe) with Right (build) on equality of the key
// columns. When PushSemiJoin is enabled (default via planner) and the probe
// input is a Scan, a Bloom filter built from the build keys is pushed into
// the probe scan, and the probe scan's cache entry keys on it. The output
// holds the probe columns, then (inner and left outer joins) the build
// columns a probe column does not shadow, then a left outer join's
// __matched marker; Project keeps only the listed ones, in its order
// (nil = all).
type Join struct {
	Left, Right         Node
	LeftKeys, RightKeys []string
	Type                JoinType
	PushSemiJoin        bool
	Project             []string
}

// AggFunc enumerates aggregate functions.
type AggFunc uint8

const (
	AggCount AggFunc = iota
	AggCountDistinct
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggCountDistinct:
		return "count_distinct"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	default:
		return "max"
	}
}

// AggSpec is one aggregate: Func over Arg (nil means count(*)), named Name
// in the output.
type AggSpec struct {
	Func AggFunc
	Arg  expr.Scalar
	Name string
}

// Agg groups Input by the GroupBy columns and computes Aggs. Empty GroupBy
// yields a single global row.
type Agg struct {
	Input   Node
	GroupBy []string
	Aggs    []AggSpec

	// groups is the number of groups the last complete grouped run wrote,
	// the size the next run allocates its tables at. ClonePlan shares the
	// cell between a plan-cache template and every clone of it; a node
	// run without one gets its own (groupCount).
	groups *atomic.Int64
}

// groupCellMu orders the creation of an Agg's group-count cell against
// its reads: one node may be cloned or run by several goroutines at once.
var groupCellMu sync.Mutex

// groupCount returns a's group-count cell, creating it on first use.
func (a *Agg) groupCount() *atomic.Int64 {
	groupCellMu.Lock()
	defer groupCellMu.Unlock()
	if a.groups == nil {
		a.groups = new(atomic.Int64)
	}
	return a.groups
}

// NamedScalar is a projection item.
type NamedScalar struct {
	Expr expr.Scalar
	Name string
}

// Project computes scalar expressions over Input.
type Project struct {
	Input Node
	Exprs []NamedScalar
}

// Filter keeps Input rows satisfying Pred (post-join filters, HAVING).
type Filter struct {
	Input Node
	Pred  expr.Pred
}

// SortKey orders by a column.
type SortKey struct {
	Col  string
	Desc bool
}

// Sort orders Input by Keys.
type Sort struct {
	Input Node
	Keys  []SortKey
}

// Limit keeps the first N rows of Input.
type Limit struct {
	Input Node
	N     int
}

// --- cache descriptors ---

// CacheDescriptor for a scan is the scan's own cache key; the dependency is
// the scanned table at its current version.
func (s *Scan) CacheDescriptor(ec *ExecCtx) (string, []core.BuildDep, bool) {
	tbl, ok := ec.Catalog.Table(s.Table)
	if !ok {
		return "", nil, false
	}
	pred := s.Filter
	if pred == nil {
		pred = expr.TruePred{}
	}
	key := core.Key{Table: s.Table, Predicate: pred.Key()}
	return key.String(), []core.BuildDep{{Table: tbl, Version: tbl.Version()}}, true
}

// CacheDescriptor for a join composes the children's descriptors.
func (j *Join) CacheDescriptor(ec *ExecCtx) (string, []core.BuildDep, bool) {
	ld, ldeps, ok := j.Left.CacheDescriptor(ec)
	if !ok {
		return "", nil, false
	}
	rd, rdeps, ok := j.Right.CacheDescriptor(ec)
	if !ok {
		return "", nil, false
	}
	desc := fmt.Sprintf("<join type=%s lkeys=%v rkeys=%v left=%s right=%s>", j.Type, j.LeftKeys, j.RightKeys, ld, rd)
	return desc, append(ldeps, rdeps...), true
}

// CacheDescriptor for a filter wraps its input.
func (f *Filter) CacheDescriptor(ec *ExecCtx) (string, []core.BuildDep, bool) {
	d, deps, ok := f.Input.CacheDescriptor(ec)
	if !ok {
		return "", nil, false
	}
	return "<filter pred=" + f.Pred.Key() + " in=" + d + ">", deps, true
}

// Projections preserve the rows of their input, so the descriptor passes
// through (the build side of a semi-join only cares about key values).
func (p *Project) CacheDescriptor(ec *ExecCtx) (string, []core.BuildDep, bool) {
	return p.Input.CacheDescriptor(ec)
}

// Aggregations, sorts and limits change row multiplicity or depend on
// ordering; they are not described (semi-joins over them are still executed,
// just not cached).
func (a *Agg) CacheDescriptor(*ExecCtx) (string, []core.BuildDep, bool) { return "", nil, false }
func (s *Sort) CacheDescriptor(ec *ExecCtx) (string, []core.BuildDep, bool) {
	return s.Input.CacheDescriptor(ec)
}
func (l *Limit) CacheDescriptor(*ExecCtx) (string, []core.BuildDep, bool) { return "", nil, false }

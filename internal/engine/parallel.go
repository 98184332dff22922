package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/obs"
)

// morselSize is the number of rows in a morsel, the unit of work of the join
// and aggregation phases. It matches cancelCheckRows, and every task claim
// is a cancellation point, so a cancelled query stops within one morsel of
// work per worker, preserving the server's cancellation latency bound.
const morselSize = cancelCheckRows

// numMorsels returns how many morsels cover rows.
func numMorsels(rows int) int { return (rows + morselSize - 1) / morselSize }

// workers returns the degree of parallelism for an operator over rows input
// rows: MaxWorkers (default GOMAXPROCS) bounded by the morsel count, so a
// small input runs inline on the caller. This is the only place a degree of
// parallelism is decided, and the only read of Serial.
func (ec *ExecCtx) workers(rows int) int {
	if ec.Serial {
		return 1
	}
	w := ec.MaxWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, numMorsels(rows)))
}

// maxPartitions caps the build/group partition fan-out, bounding
// per-partition bookkeeping.
const maxPartitions = 64

// partitionsFor picks the build/group partition fan-out for a worker count:
// the next power of two ≥ workers (so a hash can be masked instead of
// modded), capped at maxPartitions.
func partitionsFor(workers int) int {
	if workers <= 1 {
		return 1
	}
	p := 1
	for p < workers {
		p <<= 1
	}
	return min(p, maxPartitions)
}

// taskCursor hands out the tasks 0..n-1 of one phase — morsels, slices or
// hash partitions — to competing workers. A claim is a single atomic add;
// workers pull the next task whenever they finish one, so skew (an
// expensive task, a descheduled worker) self-balances.
type taskCursor struct {
	next atomic.Int64
	n    int
}

// forEachTask claims tasks from cur until they run out, invoking fn(i) for
// each claimed task i. Every claim checks cancellation, so this is every
// phase's cancellation point; a task's error ends the worker's claims and is
// returned.
func forEachTask(ec *ExecCtx, cur *taskCursor, fn func(i int) error) error {
	for {
		i := int(cur.next.Add(1)) - 1
		if i >= cur.n {
			return nil
		}
		if err := ec.Cancelled(); err != nil {
			return err
		}
		if err := fn(i); err != nil {
			return err
		}
	}
}

// morselRows returns the rows [lo, hi) of morsel m over rows input rows.
func morselRows(m, rows int) (lo, hi int) {
	lo = m * morselSize
	return lo, min(lo+morselSize, rows)
}

// runWorkers, the engine's only spawn site, runs fn on workers goroutines
// while the caller waits (inline, spawning nothing, when workers <= 1),
// returning the summed per-worker busy time, the busy time beyond the
// coordinator's wall-clock wait (extra = busy − elapsed, min 0), and the first
// error — a panic in fn included, so a worker fault fails the query, not the
// process. Busy time vs the caller's wall time is the
// EXPLAIN ANALYZE parallel-efficiency signal; the extra term is what the
// resource-attribution layer adds to query wall time to get attributed CPU —
// the coordinator's blocked wait is already inside the wall, so only the
// surplus the spawned workers contributed is added. Worker goroutines
// inherit the caller's pprof label set, so CPU samples taken inside fn carry
// the query's query_id/shape/session labels.
func runWorkers(workers int, fn func() error) (cpu, extra time.Duration, err error) {
	start := time.Now()
	if workers <= 1 {
		err = recovered(fn)
		return time.Since(start), 0, err
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	busy := make([]time.Duration, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			errs[w] = recovered(fn)
			busy[w] = time.Since(start)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, d := range busy {
		cpu += d
	}
	if cpu > elapsed {
		extra = cpu - elapsed
	}
	for _, e := range errs {
		if e != nil {
			return cpu, extra, e
		}
	}
	return cpu, extra, nil
}

// recovered runs fn, turning a panic into an error that carries the panic
// value and the panicking goroutine's stack.
func recovered(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: worker panic: %v\n%s", r, debug.Stack())
		}
	}()
	return fn()
}

// parAccounting accumulates one operator's parallel-execution counters
// across its phases (slices, build, probe, partition, assemble).
type parAccounting struct {
	workers int
	morsels int
	cpu     time.Duration
	// extra is the summed surplus over coordinator wait (see runWorkers);
	// folded into ScanStats.WorkerExtraNanos for per-query CPU attribution.
	extra time.Duration
}

// run is runWorkers with the busy time folded into the operator's counters.
func (pa *parAccounting) run(workers int, fn func() error) error {
	cpu, extra, err := runWorkers(workers, fn)
	pa.cpu += cpu
	pa.extra += extra
	return err
}

// finish publishes the counters to the operator's span and the query stats
// (a scan has no morsels: its unit of work is the slice).
func (pa *parAccounting) finish(ec *ExecCtx, sp obs.SpanRef) {
	if sp.Active() && pa.workers > 0 {
		sp.SetInt("parallel.workers", int64(pa.workers))
		if pa.morsels > 0 {
			sp.SetInt("parallel.morsels", int64(pa.morsels))
		}
		sp.SetInt("parallel.cpu_us", pa.cpu.Microseconds())
	}
	if ec.Stats != nil {
		ec.Stats.Morsels.Add(int64(pa.morsels))
		ec.Stats.WorkerNanos.Add(pa.cpu.Nanoseconds())
		ec.Stats.WorkerExtraNanos.Add(pa.extra.Nanoseconds())
	}
}

// fusedFilterInput unwraps a chain of Filter nodes above n's input,
// returning the innermost input and the fused predicates (innermost
// first). The caller evaluates them per morsel over a shared selection
// vector instead of materializing one intermediate Relation per Filter —
// the selection-vector streaming path.
func fusedFilterInput(n Node) (Node, []expr.Pred) {
	var preds []expr.Pred
	for {
		f, ok := n.(*Filter)
		if !ok {
			return n, preds
		}
		preds = append([]expr.Pred{f.Pred}, preds...)
		n = f.Input
	}
}

// bindFused binds fused filter predicates against the streamed relation.
func bindFused(preds []expr.Pred, in *Relation) ([]expr.Bound, error) {
	if len(preds) == 0 {
		return nil, nil
	}
	bounds := make([]expr.Bound, len(preds))
	for i, p := range preds {
		b, err := expr.Bind(p, in)
		if err != nil {
			return nil, err
		}
		bounds[i] = b
	}
	return bounds, nil
}

// morselSel produces the selection vector of one morsel: the identity rows
// [lo, hi) filtered through the fused bound predicates. The returned slice
// aliases scr.sel and is valid until the next call on the same scratch.
// Bound trees are shared read-only across workers; each worker filters its
// own scratch-owned vector through its own context (scr.relCtx).
func morselSel(scr *morselScratch, ctx *expr.BlockCtx, bounds []expr.Bound, lo, hi int) []int {
	sel := scr.identitySel(lo, hi)
	for _, b := range bounds {
		sel = b.Eval(ctx, sel)
		if len(sel) == 0 {
			break
		}
	}
	return sel
}

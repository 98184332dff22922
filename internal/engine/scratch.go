package engine

import (
	"sync"
	"sync/atomic"

	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/storage"
)

// scanScratch owns every per-slice scan buffer: the BlockCtx and its
// per-column decode vectors, per-block bookkeeping flags, the selection
// vector, the block selection bitmap and its range form, the candidate list,
// the output runs and the cache-range lists. Instances are recycled through a
// sync.Pool, so a steady-state warm scan allocates nothing per execution.
//
// Ownership discipline: a scratch is private to the scan of one slice from
// acquire until release. The filter phase (filterSlice) fills runs with the
// runs of every block's qualifying visible rows; the gather phase
// (gatherSlice) reads them back to decode the slice's output rows straight
// into the scan's result, so no output value lives in the scratch. Execute
// releases the scratch once the gather phase and the cache calls that read
// its range lists are done.
type scanScratch struct {
	numCols int
	ctx     *expr.BlockCtx
	ints    [][]int64   // per-column decode buffers, BlockSize, lazy
	floats  [][]float64 // per-column decode buffers, BlockSize, lazy
	loaded  []bool      // column vector valid for the current block
	counted []bool      // column counted in blocks.accessed this block
	decoded []bool      // column counted in blocks.decoded this block

	mask   storage.BlockMask  // the current block's selection bitmap
	sel    []int              // mask as a selection vector (vectorized path only)
	spans  []storage.RowRange // mask as block-relative ranges
	cands  []storage.RowRange // per-slice candidate ranges
	failed []int              // kernel indexes needing fallback this block
	runs   []outRun           // the slice's output rows, in row order

	// The slice's qualifying ranges for the cache (sliceScanResult's
	// plainRanges and sjRanges): Insert and Extend copy what they keep.
	plainRanges, sjRanges []storage.RowRange

	bp sliceBoundsProvider // pointer-passed to Prune: no per-block boxing
}

// outRun is a run of a scan's output rows: block-relative rows [lo, hi) of
// block blk, 8 bytes however long the run.
type outRun struct {
	blk    int32
	lo, hi uint16
}

// A block-relative row must fit an outRun bound.
const _ uint16 = storage.BlockSize

func (r outRun) len() int { return int(r.hi) - int(r.lo) }

// keep appends block-relative rows [lo, hi) of block blk to the output runs
// and returns their count.
func (scr *scanScratch) keep(blk, lo, hi int) int {
	scr.runs = append(scr.runs, outRun{blk: int32(blk), lo: uint16(lo), hi: uint16(hi)})
	return hi - lo
}

var scanScratchPool = sync.Pool{New: func() any {
	scratchPoolNews.Add(1)
	return &scanScratch{}
}}

// scratchPoolGets counts scratch acquisitions; scratchPoolNews counts the
// subset that allocated a fresh scratch (pool miss). gets − news is the
// recycle count: the runtime collector samples both into pc.runtime so a
// pool-efficiency regression (GC pressure stealing scratches, a leak on an
// error path) is visible without a heap profile.
var scratchPoolGets, scratchPoolNews atomic.Int64

// ScratchPoolStats reports lifetime scan-scratch pool counters.
func ScratchPoolStats() (gets, news int64) {
	return scratchPoolGets.Load(), scratchPoolNews.Load()
}

// acquireScanScratch returns a scratch sized for numCols columns with a
// reset BlockCtx. dicts is shared read-only across scan workers.
func acquireScanScratch(numCols int, dicts []*storage.Dict) *scanScratch {
	scratchPoolGets.Add(1)
	scr := scanScratchPool.Get().(*scanScratch)
	if cap(scr.ints) < numCols {
		scr.ints = make([][]int64, numCols)
		scr.floats = make([][]float64, numCols)
		scr.loaded = make([]bool, numCols)
		scr.counted = make([]bool, numCols)
		scr.decoded = make([]bool, numCols)
	} else {
		scr.ints = scr.ints[:numCols]
		scr.floats = scr.floats[:numCols]
		scr.loaded = scr.loaded[:numCols]
		scr.counted = scr.counted[:numCols]
		scr.decoded = scr.decoded[:numCols]
	}
	scr.numCols = numCols
	if scr.ctx == nil {
		scr.ctx = expr.NewBlockCtx(numCols, dicts)
	}
	scr.ctx.Reset(numCols, dicts)
	if scr.sel == nil {
		scr.sel = make([]int, 0, storage.BlockSize)
	}
	return scr
}

// release returns the scratch to the pool once the gather phase is done
// with its output runs and the cache with its range lists.
//
// pclint:recycled
func (scr *scanScratch) release() {
	scr.bp.slice = nil
	scanScratchPool.Put(scr)
}

// resetBlock clears the per-block column bookkeeping.
func (scr *scanScratch) resetBlock() {
	for i := 0; i < scr.numCols; i++ {
		scr.loaded[i] = false
		scr.counted[i] = false
		scr.decoded[i] = false
	}
}

// markAccessed counts a (column, block) touch once, kernel or decode.
func (scr *scanScratch) markAccessed(ci int, res *sliceScanResult) {
	if !scr.counted[ci] {
		scr.counted[ci] = true
		res.blocksAccessed++
	}
}

// markDecoded counts a (column, block) decompression once.
func (scr *scanScratch) markDecoded(ci int, res *sliceScanResult) {
	if !scr.decoded[ci] {
		scr.decoded[ci] = true
		res.blocksDecoded++
	}
}

// morselScratch owns the per-worker buffers of the morsel-parallel join and
// aggregation paths: the selection vector one morsel's fused filters compact,
// the chunked scalar-evaluation vectors, per-row group-state offsets and
// partition ids, and partition counters.
// Like scanScratch, an instance is private to one worker goroutine from
// acquire until release; steady-state warm executions allocate nothing here.
type morselScratch struct {
	sel []int // morsel selection vector (cap morselSize)
	// The worker's evaluation context, over a relation's vectors or the
	// ones an aggregation over a join chain gathers per morsel, with the
	// scratch composite predicates and scalars take.
	ctx expr.BlockCtx
	// Join chain levels: output tuples' input tuples, the tuples' rows per
	// source (a set per level parity) and gathered key vectors.
	par     []int32
	lists   [2][][]int32
	keys    keyCols
	kints   [][]int64
	kfloats [][]float64
	// Aggregation over a join chain: each source's rows of the selected
	// tuples (srcRows, pointing into srows when a segment picks them), the
	// read columns' values (indexed by column), the group key over them,
	// and the tuples' output positions.
	srcRows [][]int32
	srows   [][]int32
	cints   [][]int64
	cfloats [][]float64
	ckeys   keyCols
	firsts  []int32
	gidx    []int32   // per-selected-row group state offsets
	pids    []uint8   // per-selected-row partition ids
	ivec    []int64   // chunked integer scalar evaluation
	fvec    []float64 // chunked float scalar evaluation
	pcount  []int32   // per-partition counts (counting-sort scatter)
	pcur    []int32   // per-partition running cursors
}

var morselScratchPool = sync.Pool{New: func() any {
	scratchPoolNews.Add(1)
	return &morselScratch{}
}}

// acquireMorselScratch draws a worker scratch from the pool. It shares the
// scratchPoolGets/News counters with the scan scratch, so pc.runtime's
// pool-efficiency signal covers both families.
func acquireMorselScratch() *morselScratch {
	scratchPoolGets.Add(1)
	return morselScratchPool.Get().(*morselScratch)
}

// release returns the scratch to the pool. The caller must not retain any
// slice handed out by the scratch (selection vectors, eval chunks) past
// this point.
//
// pclint:recycled
func (scr *morselScratch) release() {
	morselScratchPool.Put(scr)
}

// relCtx returns the worker's context over r's column vectors.
func (scr *morselScratch) relCtx(r *Relation) *expr.BlockCtx {
	ctx := &scr.ctx
	ctx.Reset(len(r.cols), nil)
	ctx.N = r.n
	for i := range r.cols {
		if c := &r.cols[i]; c.Type == storage.Float64 {
			ctx.SetFloat(i, c.Floats)
		} else {
			ctx.SetInt(i, c.Ints)
		}
	}
	return ctx
}

// identitySel fills the scratch selection vector with rows [lo, hi).
func (scr *morselScratch) identitySel(lo, hi int) []int {
	n := hi - lo
	if cap(scr.sel) < n {
		scr.sel = make([]int, n)
	}
	sel := scr.sel[:n]
	for i := range sel {
		sel[i] = lo + i
	}
	return sel
}

// selFromInt32 widens a scattered int32 row segment into the scratch
// selection vector (expr evaluation takes []int selections).
func (scr *morselScratch) selFromInt32(rows []int32) []int {
	if cap(scr.sel) < len(rows) {
		scr.sel = make([]int, len(rows))
	}
	sel := scr.sel[:len(rows)]
	for i, r := range rows {
		sel[i] = int(r)
	}
	return sel
}

// vecs returns the chunk evaluation vectors sized for n rows.
func (scr *morselScratch) vecs(n int) ([]int64, []float64) {
	if cap(scr.ivec) < n {
		scr.ivec = make([]int64, n)
		scr.fvec = make([]float64, n)
	}
	return scr.ivec[:n], scr.fvec[:n]
}

// groupIdx returns the per-row group-offset vector sized for n rows.
func (scr *morselScratch) groupIdx(n int) []int32 {
	if cap(scr.gidx) < n {
		scr.gidx = make([]int32, n)
	}
	return scr.gidx[:n]
}

// partIds returns the per-row partition-id vector sized for n rows.
func (scr *morselScratch) partIds(n int) []uint8 {
	if cap(scr.pids) < n {
		scr.pids = make([]uint8, n)
	}
	return scr.pids[:n]
}

// partCounters returns zeroed per-partition count and cursor vectors.
func (scr *morselScratch) partCounters(p int) (count, cur []int32) {
	if cap(scr.pcount) < p {
		scr.pcount = make([]int32, p)
		scr.pcur = make([]int32, p)
	}
	count, cur = scr.pcount[:p], scr.pcur[:p]
	for i := range count {
		count[i] = 0
		cur[i] = 0
	}
	return count, cur
}

// grow extends dst by n values without a temporary allocation and returns
// the grown slice; the new values occupy dst[len(dst)-n:].
func grow[T any](dst []T, n int) []T {
	m := len(dst)
	if cap(dst) < m+n {
		grown := make([]T, m, max(2*cap(dst), m+n))
		copy(grown, dst)
		dst = grown
	}
	return dst[: m+n : cap(dst)]
}

// slot returns (*vecs)[i] resized to n values, growing the list and the
// vector as needed; the values are the caller's to overwrite.
func slot[T any](vecs *[][]T, i, n int) []T {
	if len(*vecs) <= i {
		*vecs = append(*vecs, make([][]T, i+1-len(*vecs))...)
	}
	(*vecs)[i] = grow((*vecs)[i][:0], n)
	return (*vecs)[i]
}

// Package psort implements predicate sorting, the paper's simplified
// Qd-tree baseline (§5, "predicate sorting ... organizes rows based on
// whether they fulfill common predicates in the workload"): the table is
// physically rewritten so that rows sharing a predicate-satisfaction
// signature are contiguous, letting zone maps eliminate whole blocks for
// the workload's predicates. Like all sorting-based techniques it pays a
// full table rewrite up front and again whenever the workload's predicates
// change.
package psort

import (
	"fmt"
	"sort"

	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/storage"
)

// Cost reports the work a reorganization performed — the build overhead the
// paper's Table 1 and §5.6 charge sorting-based techniques for.
type Cost struct {
	RowsRead    int
	RowsWritten int
}

// Reorganize rewrites the table so rows are clustered by their
// predicate-satisfaction signature: the first predicate is the
// most-significant bit, so rows satisfying it come first, recursively cut by
// the remaining predicates (a one-level Qd-tree linearization). The table is
// replaced in place (same name, fresh layout epoch semantics via a new
// table object); the caller must invalidate predicate-cache entries for it.
func Reorganize(cat *storage.Catalog, tableName string, preds []expr.Pred) (Cost, error) {
	var cost Cost
	tbl, ok := cat.Table(tableName)
	if !ok {
		return cost, fmt.Errorf("psort: unknown table %s", tableName)
	}
	schema := tbl.Schema()
	numCols := len(schema)
	dicts := make([]*storage.Dict, numCols)
	for i := range dicts {
		dicts[i] = tbl.Dict(i)
	}

	// Materialize the whole table columnar with signatures. The rewrite
	// doubles as a vacuum: rows invisible at the current snapshot are
	// dropped rather than copied.
	snap := cat.Snapshot()
	unlock := tbl.RLockScan()
	bounds := make([]expr.Bound, len(preds))
	for i, p := range preds {
		b, err := expr.Bind(p, tbl)
		if err != nil {
			unlock()
			return cost, err
		}
		bounds[i] = b
	}
	total := 0
	for si := 0; si < tbl.NumSlices(); si++ {
		total += tbl.Slice(si).NumRows()
	}
	batch := storage.NewBatch(schema)
	sigs := make([]uint64, 0, total)

	ctx := expr.NewBlockCtx(numCols, dicts)
	ints := make([][]int64, numCols)
	floats := make([][]float64, numCols)
	sel := make([]int, storage.BlockSize)
	sigBuf := make([]uint64, storage.BlockSize)
	for si := 0; si < tbl.NumSlices(); si++ {
		s := tbl.Slice(si)
		for blk := 0; blk*storage.BlockSize < s.NumRows(); blk++ {
			base := blk * storage.BlockSize
			n := s.NumRows() - base
			if n > storage.BlockSize {
				n = storage.BlockSize
			}
			ctx.N = n
			for ci := 0; ci < numCols; ci++ {
				if schema[ci].Type == storage.Float64 {
					if floats[ci] == nil {
						floats[ci] = make([]float64, storage.BlockSize)
					}
					s.Column(ci).ReadFloatBlock(blk, floats[ci])
					ctx.SetFloat(ci, floats[ci])
				} else {
					if ints[ci] == nil {
						ints[ci] = make([]int64, storage.BlockSize)
					}
					s.Column(ci).ReadIntBlock(blk, ints[ci])
					ctx.SetInt(ci, ints[ci])
				}
			}
			// Signature: bit i set when predicate i matches (the first
			// predicate is the most-significant cut).
			for i := 0; i < n; i++ {
				sigBuf[i] = 0
			}
			for pi, b := range bounds {
				sel = sel[:n]
				for i := 0; i < n; i++ {
					sel[i] = i
				}
				matched := b.Eval(ctx, sel)
				for _, r := range matched {
					sigBuf[r] |= 1 << (len(bounds) - 1 - pi)
				}
				sel = sel[:cap(sel)]
			}
			// Copy visible rows into the batch.
			for r := 0; r < n; r++ {
				if !s.Visible(base+r, snap) {
					continue
				}
				for ci := 0; ci < numCols; ci++ {
					switch schema[ci].Type {
					case storage.Float64:
						batch.Cols[ci].Floats = append(batch.Cols[ci].Floats, floats[ci][r])
					case storage.String:
						batch.Cols[ci].Strings = append(batch.Cols[ci].Strings, dicts[ci].Value(ints[ci][r]))
					default:
						batch.Cols[ci].Ints = append(batch.Cols[ci].Ints, ints[ci][r])
					}
				}
				sigs = append(sigs, sigBuf[r])
				batch.N++
			}
			cost.RowsRead += n
		}
	}
	numSlices := tbl.NumSlices()
	unlock()

	// Order rows by descending signature (rows satisfying the first
	// predicate cluster at the front).
	perm := make([]int, batch.N)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return sigs[perm[a]] > sigs[perm[b]] })
	applyPerm(batch, perm, schema)
	cost.RowsWritten = batch.N

	// Swap in the rewritten table under the same name.
	cat.DropTable(tableName)
	nt, err := cat.CreateTable(tableName, schema, numSlices)
	if err != nil {
		return cost, err
	}
	if err := cat.Commit(func(xid uint64) error { return nt.Append(batch, xid) }); err != nil {
		return cost, err
	}
	return cost, nil
}

func applyPerm(b *storage.Batch, perm []int, schema storage.Schema) {
	for ci := range b.Cols {
		switch schema[ci].Type {
		case storage.Float64:
			out := make([]float64, b.N)
			for i, p := range perm {
				out[i] = b.Cols[ci].Floats[p]
			}
			b.Cols[ci].Floats = out
		case storage.String:
			out := make([]string, b.N)
			for i, p := range perm {
				out[i] = b.Cols[ci].Strings[p]
			}
			b.Cols[ci].Strings = out
		default:
			out := make([]int64, b.N)
			for i, p := range perm {
				out[i] = b.Cols[ci].Ints[p]
			}
			b.Cols[ci].Ints = out
		}
	}
}

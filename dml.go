package predcache

import (
	"fmt"
	"strings"
	"time"

	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/obs"
	"github.com/predcache/predcache/internal/storage"
	"github.com/predcache/predcache/internal/systab"
)

// CreateTable registers a new table. sortKey columns (optional) define the
// physical sort order maintained by Vacuum. Names under the reserved system
// schema ("pc.") are rejected.
func (db *DB) CreateTable(name string, schema Schema, sortKey ...string) error {
	if strings.HasPrefix(name, systab.SchemaPrefix) {
		return fmt.Errorf("predcache: %q is reserved for system tables", systab.SchemaPrefix)
	}
	_, err := db.cat.CreateTable(name, schema, db.slices, sortKey...)
	if err == nil {
		// DDL invalidates every cached plan: a new table can change name
		// resolution and the planner's join choices.
		db.ddlGen.Add(1)
	}
	return err
}

// RegisterSystemTable adds a virtual table under the reserved pc schema
// (the network server registers pc.sessions through this). The name must
// carry the "pc." prefix and not clash with a registered table.
func (db *DB) RegisterSystemTable(vt engine.VirtualTable) error {
	return db.sysTables.Register(vt)
}

// Insert appends a batch of rows.
func (db *DB) Insert(table string, batch *Batch) error {
	tbl, ok := db.cat.Table(table)
	if !ok {
		return fmt.Errorf("predcache: unknown table %s", table)
	}
	return tbl.Append(batch, db.cat.NextXID())
}

// Load sorts the batch by the table's sort key (if any) and appends it; the
// table must be empty. Use for initial bulk loads.
func (db *DB) Load(table string, batch *Batch) error {
	tbl, ok := db.cat.Table(table)
	if !ok {
		return fmt.Errorf("predcache: unknown table %s", table)
	}
	return tbl.SortedLoad(batch, db.cat.NextXID())
}

// dmlEpochRetries bounds how often DeleteWhere/UpdateWhere re-match rows
// after a concurrent Vacuum renumbered the table between match and mutate.
// After that many lost races the statement takes the table's layout gate
// (blocking further vacuums) and finishes pessimistically, so DML always
// makes progress even against a back-to-back vacuum loop.
const dmlEpochRetries = 4

// DeleteWhere marks all rows matching pred as deleted (out-of-place MVCC
// delete; row numbers do not change, so predicate-cache entries stay valid).
// It returns the number of rows this statement deleted (rows a concurrent
// statement deleted first are not counted twice).
func (db *DB) DeleteWhere(table string, pred Pred) (n int, err error) {
	start := time.Now()
	defer func() {
		if err == nil {
			db.observeDML(start)
		}
	}()
	tbl, ok := db.cat.Table(table)
	if !ok {
		return 0, fmt.Errorf("predcache: unknown table %s", table)
	}
	for attempt := 0; attempt < dmlEpochRetries; attempt++ {
		n, ok, err := db.tryDeleteWhere(tbl, table, pred)
		if err != nil {
			return 0, err
		}
		if ok {
			return n, nil
		}
		// A vacuum renumbered the rows between match and mutate: re-match.
	}
	unlock := tbl.LockLayout() // exclude vacuums: the epoch cannot change now
	defer unlock()
	n, ok, err = db.tryDeleteWhere(tbl, table, pred)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("predcache: delete from %s: table layout changed while the layout gate was held", table)
	}
	return n, nil
}

// tryDeleteWhere runs one optimistic match/mutate attempt. ok reports
// whether the attempt committed; false means a concurrent vacuum renumbered
// the rows in between and the caller should retry.
func (db *DB) tryDeleteWhere(tbl *storage.Table, table string, pred Pred) (int, bool, error) {
	rows, epoch, err := db.matchRows(tbl, pred)
	if err != nil {
		return 0, false, fmt.Errorf("predcache: delete from %s: %w", table, err)
	}
	total := 0
	for _, rs := range rows {
		total += len(rs)
	}
	if total == 0 {
		tbl.BumpVersion() // the statement still invalidates result caches
		return 0, true, nil
	}
	n, ok := tbl.DeleteRowsAtEpoch(rows, db.cat.NextXID(), epoch)
	return n, ok, nil
}

// UpdateWhere implements out-of-place updates (§4.3.3): matching rows are
// deleted and re-inserted with apply() mutating a columnar copy. The delete
// and append commit atomically — a failed append (e.g. apply produced
// mismatched column lengths) leaves the table unchanged. apply may run more
// than once if a concurrent Vacuum forces a re-match; it always receives a
// freshly materialized batch. Returns the number of updated rows.
func (db *DB) UpdateWhere(table string, pred Pred, apply func(b *Batch)) (n int, err error) {
	start := time.Now()
	defer func() {
		if err == nil {
			db.observeDML(start)
		}
	}()
	tbl, ok := db.cat.Table(table)
	if !ok {
		return 0, fmt.Errorf("predcache: unknown table %s", table)
	}
	for attempt := 0; attempt < dmlEpochRetries; attempt++ {
		n, ok, err := db.tryUpdateWhere(tbl, table, pred, apply)
		if err != nil {
			return 0, err
		}
		if ok {
			return n, nil
		}
		// Vacuumed between match and materialize/mutate: re-match.
	}
	unlock := tbl.LockLayout() // exclude vacuums: the epoch cannot change now
	defer unlock()
	n, ok, err = db.tryUpdateWhere(tbl, table, pred, apply)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("predcache: update %s: table layout changed while the layout gate was held", table)
	}
	return n, nil
}

// tryUpdateWhere runs one optimistic match/materialize/mutate attempt. ok
// reports whether the attempt committed; false means a concurrent vacuum
// invalidated the captured row numbers and the caller should retry. A
// non-nil error is terminal (the table is unchanged).
func (db *DB) tryUpdateWhere(tbl *storage.Table, table string, pred Pred, apply func(b *Batch)) (int, bool, error) {
	rows, epoch, err := db.matchRows(tbl, pred)
	if err != nil {
		return 0, false, fmt.Errorf("predcache: update %s: %w", table, err)
	}
	nb, ok := db.materializeRows(tbl, rows, epoch)
	if !ok {
		return 0, false, nil
	}
	if nb.N == 0 {
		tbl.BumpVersion()
		return 0, true, nil
	}
	apply(nb)
	ok, err = tbl.UpdateRowsAtEpoch(rows, nb, db.cat.NextXID(), epoch)
	if err != nil {
		return 0, false, fmt.Errorf("predcache: update %s: %w", table, err)
	}
	return nb.N, ok, nil
}

// materializeRows copies the captured rows into a columnar batch. It
// re-checks the layout epoch under the same read lock as the copy: the row
// numbers in rows are only meaningful at that epoch, and reading them after
// a vacuum would materialize arbitrary other rows' values.
func (db *DB) materializeRows(tbl *storage.Table, rows [][]int, epoch uint64) (*storage.Batch, bool) {
	schema := tbl.Schema()
	nb := storage.NewBatch(schema)
	unlock, cur := tbl.RLockScanEpoch()
	defer unlock()
	if cur != epoch {
		return nil, false
	}
	iScratch := make([]int64, storage.BlockSize)
	fScratch := make([]float64, storage.BlockSize)
	for slice, rs := range rows {
		s := tbl.Slice(slice)
		for _, row := range rs {
			for ci, def := range schema {
				col := s.Column(ci)
				switch def.Type {
				case storage.Float64:
					nb.Cols[ci].Floats = append(nb.Cols[ci].Floats, col.FloatAt(row, fScratch))
				case storage.String:
					nb.Cols[ci].Strings = append(nb.Cols[ci].Strings, tbl.Dict(ci).Value(col.IntAt(row, iScratch)))
				default:
					nb.Cols[ci].Ints = append(nb.Cols[ci].Ints, col.IntAt(row, iScratch))
				}
			}
			nb.N++
		}
	}
	return nb, true
}

// matchRows evaluates pred per slice and returns visible matching physical
// row numbers plus the layout epoch they were captured at. The row numbers
// are only valid while the table's layout epoch still equals the returned
// one; mutate through the AtEpoch table methods.
func (db *DB) matchRows(tbl *storage.Table, pred Pred) ([][]int, uint64, error) {
	if pred == nil {
		pred = expr.TruePred{}
	}
	snapshot := db.cat.Snapshot()
	unlock, epoch := tbl.RLockScanEpoch()
	defer unlock()
	bound, err := expr.Bind(pred, tbl)
	if err != nil {
		return nil, 0, err
	}
	numCols := len(tbl.Schema())
	dicts := make([]*storage.Dict, numCols)
	for i := range dicts {
		dicts[i] = tbl.Dict(i)
	}
	out := make([][]int, tbl.NumSlices())
	needCols := map[int]bool{}
	for _, name := range pred.Columns(nil) {
		needCols[tbl.ColumnIndex(name)] = true
	}
	for si := 0; si < tbl.NumSlices(); si++ {
		s := tbl.Slice(si)
		ctx := expr.NewBlockCtx(numCols, dicts)
		ints := make(map[int][]int64)
		floats := make(map[int][]float64)
		sel := make([]int, storage.BlockSize)
		for blk := 0; blk*storage.BlockSize < s.NumRows(); blk++ {
			base := blk * storage.BlockSize
			n := s.NumRows() - base
			if n > storage.BlockSize {
				n = storage.BlockSize
			}
			ctx.N = n
			for ci := range needCols {
				if tbl.ColumnType(ci) == storage.Float64 {
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
			sel = sel[:n]
			for i := 0; i < n; i++ {
				sel[i] = i
			}
			matched := bound.Eval(ctx, sel)
			for _, r := range matched {
				row := base + r
				if s.Visible(row, snapshot) {
					out[si] = append(out[si], row)
				}
			}
			sel = sel[:cap(sel)]
		}
	}
	return out, epoch, nil
}

// Vacuum reclaims deleted rows and re-sorts the table; this changes physical
// row numbers and therefore invalidates the table's predicate-cache entries.
func (db *DB) Vacuum(table string) error {
	start := time.Now()
	tbl, ok := db.cat.Table(table)
	if !ok {
		return fmt.Errorf("predcache: unknown table %s", table)
	}
	tbl.Vacuum(db.cat.Snapshot())
	// The new layout epoch makes every entry of the table stale. Lookups
	// would drop them one by one, but an entry whose predicate never comes
	// back is never looked up again and would stay for good.
	if db.cache != nil {
		db.cache.InvalidateTable(table)
	}
	db.observeDML(start)
	db.logger.Info("vacuum",
		"table", table, "wall_us", time.Since(start).Microseconds(),
		"rows", tbl.NumRows())
	return nil
}

// observeDML records one successful mutation statement's wall time under the
// dml SLO class. Error paths (unknown table, bad predicate) deliberately do
// not observe: their sub-microsecond no-op samples would skew the dml
// histograms toward zero. DML statements are not traced (they have no plan
// tree), so the observation carries no retained-trace exemplar.
func (db *DB) observeDML(start time.Time) {
	db.slo.Observe(obs.ClassDML, false, time.Since(start), -1, false)
}

package predcache

import (
	"fmt"
	"strings"
	"time"

	"github.com/predcache/predcache/internal/engine"
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
	unlock := tbl.LockWrites()
	defer unlock()
	return db.cat.Commit(func(xid uint64) error { return tbl.Append(batch, xid) })
}

// Load sorts the batch by the table's sort key (if any) and appends it; the
// table must be empty. Use for initial bulk loads.
func (db *DB) Load(table string, batch *Batch) error {
	tbl, ok := db.cat.Table(table)
	if !ok {
		return fmt.Errorf("predcache: unknown table %s", table)
	}
	unlock := tbl.LockWrites()
	defer unlock()
	return db.cat.Commit(func(xid uint64) error { return tbl.SortedLoad(batch, xid) })
}

// DeleteWhere marks all rows matching pred as deleted (out-of-place MVCC
// delete; row numbers do not change, so predicate-cache entries stay valid).
// It returns the number of rows deleted.
func (db *DB) DeleteWhere(table string, pred Pred) (int, error) {
	return db.mutateWhere(table, pred, true, nil)
}

// UpdateWhere implements out-of-place updates (§4.3.3): matching rows are
// deleted and re-inserted with apply() mutating a columnar copy. The delete
// and append commit atomically — a failed append (e.g. apply produced
// mismatched column lengths) leaves the table unchanged. apply runs once,
// while the statement holds the table's write gate, so it must not write to
// the table itself. Returns the number of updated rows.
func (db *DB) UpdateWhere(table string, pred Pred, apply func(b *Batch)) (int, error) {
	return db.mutateWhere(table, pred, false, apply)
}

// mutateWhere is DeleteWhere (del) and UpdateWhere (apply). It holds the
// table's write gate from the match scan through the mutation, so the scan's
// snapshot sees every earlier write to the table and no other writer or
// vacuum touches the matched rows before the mutation. The scan also copies
// the rows for an update. It skips the predicate cache, which DML never
// reads or feeds (one-off DML ranges would churn its LRU), and runs through
// Execute, not db.Run: it emits no QueryEvent and leaves LastQueryStats to
// the last SELECT.
func (db *DB) mutateWhere(table string, pred Pred, del bool, apply func(b *Batch)) (n int, err error) {
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
	// The alias names every table column's output "<table>.<column>", so
	// none can clash with the rowid column, whatever the columns are called.
	op := "delete from"
	scan := &engine.Scan{Table: table, Filter: pred, RowIDs: true, Alias: table, Project: []string{}}
	if !del {
		op = "update"
		scan.Project = nil // every column: the update re-inserts whole rows
	}
	unlock := tbl.LockWrites()
	defer unlock()
	ec := db.execCtx() // its snapshot needs no pin: the gate keeps vacuum out
	ec.Cache = nil
	rel, err := scan.Execute(ec)
	if err != nil {
		return 0, fmt.Errorf("predcache: %s %s: %w", op, table, err)
	}
	if rel.NumRows() == 0 {
		tbl.BumpVersion() // the statement still invalidates result caches
		return 0, nil
	}
	// Rowids arrive in slice order, then row order, and an update appends
	// its copies in that order.
	rows := make([][]int, tbl.NumSlices())
	for _, id := range rel.Col(0).Ints {
		rows[id>>32] = append(rows[id>>32], int(uint32(id)))
	}
	if del {
		err = db.cat.Commit(func(xid uint64) error { n = tbl.DeleteRows(rows, xid); return nil })
		return n, err
	}
	nb := updateBatch(tbl, rel)
	apply(nb)
	if err := db.cat.Commit(func(xid uint64) error { return tbl.UpdateRows(rows, nb, xid) }); err != nil {
		return 0, fmt.Errorf("predcache: update %s: %w", table, err)
	}
	return nb.N, nil
}

// updateBatch turns an update's scan output (rowid, then every column) into
// the batch apply mutates. The scan's merged vectors are fresh allocations,
// so the batch takes them over; string codes become their values.
func updateBatch(tbl *storage.Table, rel *engine.Relation) *storage.Batch {
	schema := tbl.Schema()
	nb := storage.NewBatch(schema)
	nb.N = rel.NumRows()
	unlock := tbl.RLockScan() // concurrent appends grow the dictionaries
	defer unlock()
	for ci, def := range schema {
		col := rel.Col(ci + 1)
		switch def.Type {
		case storage.Float64:
			nb.Cols[ci].Floats = col.Floats
		case storage.String:
			strs := make([]string, len(col.Ints))
			for i, code := range col.Ints {
				strs[i] = col.Dict.Value(code)
			}
			nb.Cols[ci].Strings = strs
		default:
			nb.Cols[ci].Ints = col.Ints
		}
	}
	return nb
}

// Vacuum reclaims deleted rows and re-sorts the table; this changes physical
// row numbers and therefore invalidates the table's predicate-cache entries.
func (db *DB) Vacuum(table string) error {
	start := time.Now()
	tbl, ok := db.cat.Table(table)
	if !ok {
		return fmt.Errorf("predcache: unknown table %s", table)
	}
	// Rows deleted after the oldest running statement's snapshot stay: that
	// statement may still read them.
	kept := tbl.Vacuum(db.cat.Horizon())
	// The new layout epoch makes every entry of the table stale. Lookups
	// would drop them one by one, but an entry whose predicate never comes
	// back is never looked up again and would stay for good.
	if db.cache != nil {
		db.cache.InvalidateTable(table)
	}
	db.observeDML(start)
	if db.logger != nil {
		db.logger.Info("vacuum",
			"table", table, "wall_us", time.Since(start).Microseconds(),
			"rows", tbl.NumRows(), "kept_rows", kept)
	}
	return nil
}

// observeDML records one successful mutation statement's wall time under the
// dml SLO class. Error paths (unknown table, bad predicate) deliberately do
// not observe: their sub-microsecond no-op samples would skew the dml
// histograms toward zero. DML statements are not traced: their row-matching
// scan emits no QueryEvent, so the observation carries no retained-trace
// exemplar.
func (db *DB) observeDML(start time.Time) {
	db.slo.Observe(obs.ClassDML, false, time.Since(start), -1, false)
}

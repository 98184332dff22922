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
func (db *DB) DeleteWhere(table string, pred Pred) (int, error) {
	return db.mutateWhere(table, pred, true, nil)
}

// UpdateWhere implements out-of-place updates (§4.3.3): matching rows are
// deleted and re-inserted with apply() mutating a columnar copy. The delete
// and append commit atomically — a failed append (e.g. apply produced
// mismatched column lengths) leaves the table unchanged. apply may run more
// than once if a concurrent Vacuum forces a re-match; it always receives a
// freshly materialized batch. Returns the number of updated rows.
func (db *DB) UpdateWhere(table string, pred Pred, apply func(b *Batch)) (int, error) {
	return db.mutateWhere(table, pred, false, apply)
}

// mutateWhere is DeleteWhere (del) and UpdateWhere (apply). Each attempt
// finds the visible matching rows with one engine scan, which also copies
// them for an update, and mutates them through the AtEpoch table methods.
// The scan skips the predicate cache, which DML never reads or feeds (one-off
// DML ranges would churn its LRU), and runs through Execute, not db.Run: it
// emits no QueryEvent and leaves LastQueryStats to the last SELECT.
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
	for attempt := 0; ; attempt++ {
		last := attempt == dmlEpochRetries
		if last {
			unlock := tbl.LockLayout() // exclude vacuums: the epoch cannot change now
			defer unlock()
		}
		// The epoch is read before the scan takes the table lock, never
		// after: a vacuum in between fails the AtEpoch check below and the
		// loop matches again, while an epoch read after the scan could vouch
		// for row numbers a vacuum has already renumbered.
		epoch := tbl.LayoutEpoch()
		ec := db.execCtx()
		ec.Cache = nil
		rel, err := scan.Execute(ec)
		if err != nil {
			return 0, fmt.Errorf("predcache: %s %s: %w", op, table, err)
		}
		if rel.NumRows() == 0 {
			tbl.BumpVersion() // the statement still invalidates result caches
			return 0, nil
		}
		// Rowids arrive in slice order, then row order, and an update
		// appends its copies in that order.
		rows := make([][]int, tbl.NumSlices())
		for _, id := range rel.Col(0).Ints {
			rows[id>>32] = append(rows[id>>32], int(uint32(id)))
		}
		if del {
			if n, ok := tbl.DeleteRowsAtEpoch(rows, db.cat.NextXID(), epoch); ok {
				return n, nil
			}
		} else {
			nb := updateBatch(tbl, rel)
			apply(nb)
			ok, err := tbl.UpdateRowsAtEpoch(rows, nb, db.cat.NextXID(), epoch)
			if err != nil {
				return 0, fmt.Errorf("predcache: update %s: %w", table, err)
			}
			if ok {
				return nb.N, nil
			}
		}
		// A vacuum renumbered the rows between match and mutate: re-match.
		if last {
			return 0, fmt.Errorf("predcache: %s %s: table layout changed while the layout gate was held", op, table)
		}
	}
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
	tbl.Vacuum(db.cat.Snapshot())
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
			"rows", tbl.NumRows())
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

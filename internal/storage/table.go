package storage

import (
	"fmt"
	"sort"
	"sync"
)

// Batch is a columnar set of rows to append. For every column of the target
// schema exactly one of the vectors is populated: Ints for Int64/Date/Bool
// columns (dates as day numbers, bools as 0/1), Floats for Float64 columns,
// and Strings for String columns.
type Batch struct {
	Cols []ColVec
	N    int
}

// ColVec is one column of a Batch.
type ColVec struct {
	Ints    []int64
	Floats  []float64
	Strings []string
}

// NewBatch allocates an empty batch shaped like schema.
func NewBatch(schema Schema) *Batch {
	return &Batch{Cols: make([]ColVec, len(schema))}
}

// Table is a columnar relation partitioned into data slices.
//
// Concurrency: a table-level RWMutex serializes DML against scans. Scans of
// different slices run in parallel under the read lock. Writers also take
// the write gate (LockWrites), which admits one at a time.
type Table struct {
	mu sync.RWMutex

	// writeGate admits one writer at a time (see LockWrites). Vacuum holds
	// it for the whole reorganization, and DML from its match scan through
	// its mutation. Lock order: writeGate before mu, never the reverse.
	writeGate sync.Mutex

	// name, schema, colIdx and sortKey are immutable after NewTable. The
	// dicts and slices slice headers are also fixed at construction: only
	// their *contents* change, under mu (scans read them under RLockScan).
	name    string
	schema  Schema
	colIdx  map[string]int
	dicts   []*Dict // shared per-column dictionaries (nil for non-strings)
	slices  []*Slice
	sortKey []int // column indexes; empty = unsorted

	// sortedRows[i] is the number of rows of slice i that are covered by the
	// sort order; rows beyond it live in the insert buffer (§4.3.1) until the
	// next vacuum merges them.
	sortedRows []int // guarded by mu

	nextChunk int // guarded by mu; round-robin chunk distribution cursor

	// version counts committed DML statements against this table. Result
	// caches and join-index entries compare versions to detect changes.
	version uint64 // guarded by mu

	// layoutEpoch changes only when physical row numbers change (vacuum /
	// reorganization). Predicate-cache entries are bound to an epoch.
	layoutEpoch uint64 // guarded by mu

	// deleteOps counts DELETE statements; materialized-view maintenance uses
	// it to distinguish append-only histories (incrementally refreshable)
	// from ones needing a full rebuild.
	deleteOps uint64 // guarded by mu

	// distinctCache memoizes per-column distinct counts for the planner.
	distinctCache map[int]distinctEntry // guarded by mu
}

type distinctEntry struct {
	version uint64
	count   int
}

// NewTable creates an empty table with numSlices data slices. sortKey lists
// column names forming an optional compound sort key.
func NewTable(name string, schema Schema, numSlices int, sortKey ...string) (*Table, error) {
	if numSlices < 1 {
		return nil, fmt.Errorf("storage: table %s: need at least 1 slice", name)
	}
	t := &Table{
		name:       name,
		schema:     schema,
		colIdx:     make(map[string]int, len(schema)),
		dicts:      make([]*Dict, len(schema)),
		sortedRows: make([]int, numSlices),
	}
	for i, def := range schema {
		if _, dup := t.colIdx[def.Name]; dup {
			return nil, fmt.Errorf("storage: table %s: duplicate column %s", name, def.Name)
		}
		t.colIdx[def.Name] = i
		if def.Type == String {
			t.dicts[i] = NewDict()
		}
	}
	for _, k := range sortKey {
		idx, ok := t.colIdx[k]
		if !ok {
			return nil, fmt.Errorf("storage: table %s: sort key column %s not found", name, k)
		}
		t.sortKey = append(t.sortKey, idx)
	}
	for i := 0; i < numSlices; i++ {
		t.slices = append(t.slices, newSlice(schema, t.dicts))
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// ColumnIndex resolves a column name to its index, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// NumSlices returns the number of data slices.
func (t *Table) NumSlices() int { return len(t.slices) }

// Slice returns data slice i. Callers must hold the scan lock (RLockScan).
func (t *Table) Slice(i int) *Slice { return t.slices[i] }

// Dict returns the dictionary of a string column (nil otherwise).
func (t *Table) Dict(col int) *Dict { return t.dicts[col] }

// Version returns the DML version counter.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// LayoutEpoch returns the physical-layout epoch.
func (t *Table) LayoutEpoch() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.layoutEpoch
}

// NumRows returns the total physical row count across slices.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, s := range t.slices {
		n += s.numRows
	}
	return n
}

// RLockScan takes the table's read lock for the duration of a scan; the
// returned function releases it.
func (t *Table) RLockScan() func() {
	t.mu.RLock()
	return t.mu.RUnlock
}

// Append adds a batch of rows at transaction xid, distributing chunks of
// BlockSize rows round-robin over the slices. If the table has a sort key,
// appended rows land in the insert buffer (the tail of each slice) and are
// merged into sort order by the next Vacuum, as in §4.3.1.
func (t *Table) Append(b *Batch, xid uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appendLocked(b, xid)
}

func (t *Table) appendLocked(b *Batch, xid uint64) error {
	if len(b.Cols) != len(t.schema) {
		return fmt.Errorf("storage: table %s: batch has %d columns, schema has %d", t.name, len(b.Cols), len(t.schema))
	}
	// Pre-encode strings to dict codes.
	ints := make([][]int64, len(t.schema))
	floats := make([][]float64, len(t.schema))
	for i, def := range t.schema {
		cv := &b.Cols[i]
		switch {
		case def.Type == Float64:
			if len(cv.Floats) != b.N {
				return fmt.Errorf("storage: table %s column %s: %d floats, want %d", t.name, def.Name, len(cv.Floats), b.N)
			}
			floats[i] = cv.Floats
		case def.Type == String:
			if len(cv.Strings) != b.N {
				return fmt.Errorf("storage: table %s column %s: %d strings, want %d", t.name, def.Name, len(cv.Strings), b.N)
			}
			codes := make([]int64, b.N)
			d := t.dicts[i]
			for j, s := range cv.Strings {
				codes[j] = d.Code(s)
			}
			ints[i] = codes
		default:
			if len(cv.Ints) != b.N {
				return fmt.Errorf("storage: table %s column %s: %d ints, want %d", t.name, def.Name, len(cv.Ints), b.N)
			}
			ints[i] = cv.Ints
		}
	}
	rowVals := make([]int64, len(t.schema))
	rowFloats := make([]float64, len(t.schema))
	for start := 0; start < b.N; start += BlockSize {
		end := start + BlockSize
		if end > b.N {
			end = b.N
		}
		sl := t.slices[t.nextChunk%len(t.slices)]
		t.nextChunk++
		for r := start; r < end; r++ {
			for c := range t.schema {
				if floats[c] != nil {
					rowFloats[c] = floats[c][r]
				} else {
					rowVals[c] = ints[c][r]
				}
			}
			sl.appendRow(rowVals, rowFloats, xid)
		}
	}
	t.version++
	return nil
}

// SortedLoad sorts the batch by the table's sort key and appends it. It is
// intended for initial loads; the table must be empty.
func (t *Table) SortedLoad(b *Batch, xid uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.slices {
		if s.numRows > 0 {
			return fmt.Errorf("storage: table %s: SortedLoad requires an empty table", t.name)
		}
	}
	if len(t.sortKey) > 0 {
		t.sortBatch(b)
	}
	if err := t.appendLocked(b, xid); err != nil {
		return err
	}
	for i, s := range t.slices {
		t.sortedRows[i] = s.numRows
	}
	return nil
}

// sortBatch reorders batch rows by the table sort key.
func (t *Table) sortBatch(b *Batch) {
	perm := make([]int, b.N)
	for i := range perm {
		perm[i] = i
	}
	keys := t.sortKey
	sort.SliceStable(perm, func(x, y int) bool {
		rx, ry := perm[x], perm[y]
		for _, k := range keys {
			cv := &b.Cols[k]
			switch t.schema[k].Type {
			case Float64:
				if cv.Floats[rx] != cv.Floats[ry] {
					return cv.Floats[rx] < cv.Floats[ry]
				}
			case String:
				if cv.Strings[rx] != cv.Strings[ry] {
					return cv.Strings[rx] < cv.Strings[ry]
				}
			default:
				if cv.Ints[rx] != cv.Ints[ry] {
					return cv.Ints[rx] < cv.Ints[ry]
				}
			}
		}
		return false
	})
	for i := range b.Cols {
		cv := &b.Cols[i]
		switch {
		case cv.Floats != nil:
			out := make([]float64, b.N)
			for j, p := range perm {
				out[j] = cv.Floats[p]
			}
			cv.Floats = out
		case cv.Strings != nil:
			out := make([]string, b.N)
			for j, p := range perm {
				out[j] = cv.Strings[p]
			}
			cv.Strings = out
		default:
			out := make([]int64, b.N)
			for j, p := range perm {
				out[j] = cv.Ints[p]
			}
			cv.Ints = out
		}
	}
}

// DeleteOps returns the number of DELETE statements executed.
func (t *Table) DeleteOps() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.deleteOps
}

// BumpVersion records a DML statement that did not change any rows (e.g. an
// UPDATE matching zero rows still invalidates result-cache entries in the
// paper's model).
func (t *Table) BumpVersion() {
	t.mu.Lock()
	t.version++
	t.mu.Unlock()
}

// Vacuum reclaims rows that were deleted at or before horizon, merges the
// insert buffer, and re-sorts if the table has a sort key. Physical row
// numbers change, so the layout epoch is bumped — the event that invalidates
// predicate-cache entries (§4.3.2). It returns the number of deleted rows it
// kept because they were deleted after the horizon.
func (t *Table) Vacuum(horizon uint64) (kept int) {
	t.writeGate.Lock()
	defer t.writeGate.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()

	// Materialize all surviving rows columnar, then rebuild.
	total := 0
	for _, s := range t.slices {
		total += s.numRows
	}
	b := NewBatch(t.schema)
	for i, def := range t.schema {
		switch def.Type {
		case Float64:
			b.Cols[i].Floats = make([]float64, 0, total)
		case String:
			b.Cols[i].Strings = make([]string, 0, total)
		default:
			b.Cols[i].Ints = make([]int64, 0, total)
		}
	}
	var xids, delXIDs []uint64
	iScratch := make([]int64, BlockSize)
	fScratch := make([]float64, BlockSize)
	for _, s := range t.slices {
		for blk := 0; blk*BlockSize < s.numRows; blk++ {
			base := blk * BlockSize
			n := s.numRows - base
			if n > BlockSize {
				n = BlockSize
			}
			for r := 0; r < n; r++ {
				row := base + r
				d := s.deletedAt(row)
				if d != 0 && d <= horizon {
					continue // globally invisible: reclaim
				}
				for ci, def := range t.schema {
					c := s.cols[ci]
					switch def.Type {
					case Float64:
						b.Cols[ci].Floats = append(b.Cols[ci].Floats, c.FloatAt(row, fScratch))
					case String:
						code := c.IntAt(row, iScratch)
						b.Cols[ci].Strings = append(b.Cols[ci].Strings, t.dicts[ci].Value(code))
					default:
						b.Cols[ci].Ints = append(b.Cols[ci].Ints, c.IntAt(row, iScratch))
					}
				}
				if d != 0 {
					kept++
				}
				xids = append(xids, s.insertXID[row])
				delXIDs = append(delXIDs, d)
				b.N++
			}
		}
	}

	if len(t.sortKey) > 0 {
		// Sort rows and carry xids along by embedding them as a shadow
		// column: sortBatch permutes b only, so permute xids with the same
		// comparison by sorting an index permutation here instead.
		perm := make([]int, b.N)
		for i := range perm {
			perm[i] = i
		}
		keys := t.sortKey
		sort.SliceStable(perm, func(x, y int) bool {
			rx, ry := perm[x], perm[y]
			for _, k := range keys {
				cv := &b.Cols[k]
				switch t.schema[k].Type {
				case Float64:
					if cv.Floats[rx] != cv.Floats[ry] {
						return cv.Floats[rx] < cv.Floats[ry]
					}
				case String:
					if cv.Strings[rx] != cv.Strings[ry] {
						return cv.Strings[rx] < cv.Strings[ry]
					}
				default:
					if cv.Ints[rx] != cv.Ints[ry] {
						return cv.Ints[rx] < cv.Ints[ry]
					}
				}
			}
			return false
		})
		applyPermBatch(b, perm, t.schema)
		nx := make([]uint64, b.N)
		nd := make([]uint64, b.N)
		for j, p := range perm {
			nx[j] = xids[p]
			nd[j] = delXIDs[p]
		}
		xids, delXIDs = nx, nd
	}

	// Rebuild slices.
	for i := range t.slices {
		t.slices[i] = newSlice(t.schema, t.dicts)
	}
	t.nextChunk = 0
	rowVals := make([]int64, len(t.schema))
	rowFloats := make([]float64, len(t.schema))
	for start := 0; start < b.N; start += BlockSize {
		end := start + BlockSize
		if end > b.N {
			end = b.N
		}
		sl := t.slices[t.nextChunk%len(t.slices)]
		t.nextChunk++
		for r := start; r < end; r++ {
			for c, def := range t.schema {
				switch def.Type {
				case Float64:
					rowFloats[c] = b.Cols[c].Floats[r]
				case String:
					rowVals[c] = t.dicts[c].Code(b.Cols[c].Strings[r])
				default:
					rowVals[c] = b.Cols[c].Ints[r]
				}
			}
			sl.appendRow(rowVals, rowFloats, xids[r])
			if delXIDs[r] != 0 {
				sl.deleteRow(sl.numRows-1, delXIDs[r])
			}
		}
	}
	for i, s := range t.slices {
		t.sortedRows[i] = s.numRows
		assertSliceMVCC(s, "Table.Vacuum")
	}
	t.layoutEpoch++
	t.version++
	return kept
}

func applyPermBatch(b *Batch, perm []int, schema Schema) {
	for i := range b.Cols {
		cv := &b.Cols[i]
		switch schema[i].Type {
		case Float64:
			out := make([]float64, b.N)
			for j, p := range perm {
				out[j] = cv.Floats[p]
			}
			cv.Floats = out
		case String:
			out := make([]string, b.N)
			for j, p := range perm {
				out[j] = cv.Strings[p]
			}
			cv.Strings = out
		default:
			out := make([]int64, b.N)
			for j, p := range perm {
				out[j] = cv.Ints[p]
			}
			cv.Ints = out
		}
	}
}

// MemBytes approximates the table's total memory footprint.
func (t *Table) MemBytes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, s := range t.slices {
		n += s.MemBytes()
	}
	for _, d := range t.dicts {
		if d != nil {
			n += d.MemBytes()
		}
	}
	return n
}

// ZoneMapBytes returns the total size of all per-block zone maps.
func (t *Table) ZoneMapBytes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, s := range t.slices {
		for _, c := range s.cols {
			n += c.ZoneMapBytes()
		}
	}
	return n
}

// ColumnType returns the type of column i.
func (t *Table) ColumnType(i int) ColumnType { return t.schema[i].Type }

// DistinctCount returns the exact number of distinct values in an
// integer-representation column, computed once and cached per (column,
// version). The planner uses it to estimate join fanout (rows / distinct
// keys) when ordering joins.
func (t *Table) DistinctCount(col int) int {
	t.mu.RLock()
	if t.distinctCache != nil {
		if e, ok := t.distinctCache[col]; ok && e.version == t.version {
			t.mu.RUnlock()
			return e.count
		}
	}
	t.mu.RUnlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.distinctCache == nil {
		t.distinctCache = make(map[int]distinctEntry)
	}
	if e, ok := t.distinctCache[col]; ok && e.version == t.version {
		return e.count
	}
	set := make(map[int64]struct{})
	if t.schema[col].Type == Float64 {
		// Float columns are never join keys; treat as all-distinct.
		n := 0
		for _, s := range t.slices {
			n += s.numRows
		}
		t.distinctCache[col] = distinctEntry{version: t.version, count: n}
		return n
	}
	scratch := make([]int64, BlockSize)
	for _, s := range t.slices {
		c := s.cols[col]
		for blk := 0; blk*BlockSize < s.numRows; blk++ {
			n := c.ReadIntBlock(blk, scratch)
			for i := 0; i < n; i++ {
				set[scratch[i]] = struct{}{}
			}
		}
	}
	t.distinctCache[col] = distinctEntry{version: t.version, count: len(set)}
	return len(set)
}

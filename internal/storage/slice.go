package storage

// Slice is one data slice of a table: a horizontal partition with its own
// per-column block chains and MVCC metadata. The leader assigns slices to
// compute workers (goroutines here); the predicate cache keeps one entry per
// (predicate, slice), mirroring §4.2.1.
type Slice struct {
	cols []*ColumnStore

	// MVCC row headers (§4.3.2): creation and deletion transaction ids.
	// deleteXID is nil until the slice's first deletion — rows that were
	// never deleted carry no deletion header — and holds one id per row from
	// then on, 0 meaning the row is live.
	insertXID []uint64
	deleteXID []uint64

	numRows int
}

func newSlice(schema Schema, dicts []*Dict) *Slice {
	s := &Slice{cols: make([]*ColumnStore, len(schema))}
	for i, def := range schema {
		s.cols[i] = newColumnStore(def.Type, dicts[i])
	}
	return s
}

// NumRows returns the number of physical rows (live and deleted).
func (s *Slice) NumRows() int { return s.numRows }

// NumBlocks returns the number of row blocks in the slice.
func (s *Slice) NumBlocks() int { return (s.numRows + BlockSize - 1) / BlockSize }

// Column returns the column store at index i.
func (s *Slice) Column(i int) *ColumnStore { return s.cols[i] }

// InsertXIDs exposes the per-row creation timestamps (read-only). The
// returned slice aliases live MVCC state that appends grow and Vacuum
// replaces; read it only while holding the table's scan lock and never
// retain it across the scan.
//
// pclint:recycled
func (s *Slice) InsertXIDs() []uint64 { return s.insertXID }

// DeleteXIDs exposes the per-row deletion timestamps (read-only); nil means
// no row of the slice has ever been deleted. Same aliasing rules as
// InsertXIDs.
//
// pclint:recycled
func (s *Slice) DeleteXIDs() []uint64 { return s.deleteXID }

// deletedAt returns the transaction that deleted row, or 0 if it is live.
func (s *Slice) deletedAt(row int) uint64 {
	if s.deleteXID == nil {
		return 0
	}
	return s.deleteXID[row]
}

// Visible reports whether row is visible to a snapshot: the row was created
// at or before the snapshot and not deleted at or before it.
func (s *Slice) Visible(row int, snapshot uint64) bool {
	if s.insertXID[row] > snapshot {
		return false
	}
	d := s.deletedAt(row)
	return d == 0 || d > snapshot
}

// HasDeletionsIn reports whether any row in [start, end) carries a deletion
// timestamp; scans use it to fast-path fully-live blocks.
func (s *Slice) HasDeletionsIn(start, end int) bool {
	if s.deleteXID == nil {
		return false
	}
	for i := start; i < end; i++ {
		if s.deleteXID[i] != 0 {
			return true
		}
	}
	return false
}

// appendRow appends one row given integer-representation values (dict codes
// for strings) and raw floats; vals[i] is used for non-float columns and
// fvals[i] for float columns.
func (s *Slice) appendRow(vals []int64, fvals []float64, xid uint64) {
	for i, c := range s.cols {
		if c.Typ == Float64 {
			c.appendFloat(fvals[i])
		} else {
			c.appendInt(vals[i])
		}
	}
	s.insertXID = append(s.insertXID, xid)
	if s.deleteXID != nil {
		s.deleteXID = append(s.deleteXID, 0)
	}
	s.numRows++
	assertMVCCHeaders(s, "Slice.appendRow")
}

// deleteRow marks a row deleted at xid. Idempotent for already-deleted rows
// (keeps the earliest deletion).
func (s *Slice) deleteRow(row int, xid uint64) {
	if s.deleteXID == nil {
		s.deleteXID = make([]uint64, s.numRows, cap(s.insertXID))
	}
	if s.deleteXID[row] == 0 {
		s.deleteXID[row] = xid
	}
	assertMVCCRow(s.insertXID[row], s.deleteXID[row], row, "Slice.deleteRow")
}

// MemBytes approximates the slice's memory footprint (blocks + MVCC
// headers), excluding shared dictionaries.
func (s *Slice) MemBytes() int {
	n := (len(s.insertXID)+len(s.deleteXID))*8 + 48
	for _, c := range s.cols {
		n += c.MemBytes()
	}
	return n
}

package storage

// Out-of-place DML (§4.3.2, §4.3.3). DeleteWhere/UpdateWhere in the facade
// find their rows with an engine scan under the read lock, then mutate them
// under the write lock, holding the write gate across both.

// LockWrites takes the table's write gate and returns its release. The gate
// admits one writer at a time (Insert, Load, DeleteWhere, UpdateWhere,
// Vacuum), so no other writer moves or changes rows a writer has matched.
// Scans do not take it.
func (t *Table) LockWrites() func() {
	t.writeGate.Lock()
	return t.writeGate.Unlock
}

// DeleteRows marks the given rows (indexed by slice) deleted at xid. Row
// numbers do not change; scans eliminate the rows via the visibility check,
// so predicate-cache entries remain valid. It returns the number of rows
// that went from live to deleted; already-deleted rows keep their delete xid.
func (t *Table) DeleteRows(rows [][]int, xid uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.version++
	return t.deleteLocked(rows, xid)
}

// UpdateRows is the mutation half of an out-of-place update, under one
// write-lock acquisition: append the updated copies in nb, then mark the
// original rows (indexed by slice) deleted, all at the same xid. The append
// validates the batch before touching any row, so a malformed batch leaves
// the table unchanged.
func (t *Table) UpdateRows(rows [][]int, nb *Batch, xid uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.appendLocked(nb, xid); err != nil {
		return err
	}
	t.deleteLocked(rows, xid)
	return nil
}

func (t *Table) deleteLocked(rows [][]int, xid uint64) (deleted int) {
	for si, rs := range rows {
		s := t.slices[si]
		assertRowsInSlice(rs, s.numRows, "Table.deleteLocked")
		for _, r := range rs {
			if s.deletedAt(r) == 0 {
				deleted++
			}
			s.deleteRow(r, xid)
		}
	}
	if deleted > 0 {
		t.deleteOps++
	}
	return deleted
}

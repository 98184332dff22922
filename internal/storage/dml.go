package storage

// Epoch-checked DML. DeleteWhere/UpdateWhere in the facade read the layout
// epoch, find their rows with an engine scan under the read lock, then mutate
// them under the write lock. Between scan and mutate a Vacuum may rebuild the
// slices, renumbering physical rows, so the captured row numbers would hit
// arbitrary other rows. The AtEpoch variants take the epoch read before the
// scan and refuse to mutate when it no longer matches, letting the caller
// re-match and retry. When the optimistic retries keep losing to back-to-back
// vacuums, LockLayout turns the final attempt pessimistic.

// LockLayout blocks layout changes (Vacuum) until the returned release
// function is called. With the gate held the layout epoch cannot change, so
// a match/mutate pair is guaranteed to observe the same epoch. Scans and
// appends are unaffected — the gate is not the table lock. Callers must not
// invoke Vacuum while holding it.
func (t *Table) LockLayout() func() {
	t.layoutGate.Lock()
	return t.layoutGate.Unlock
}

// DeleteRowsAtEpoch marks the captured rows (indexed by slice) deleted at
// xid, provided the layout epoch still equals epoch. It returns the number
// of rows that transitioned live→deleted and whether the epoch matched;
// on a mismatch nothing is modified. Already-deleted rows keep their
// original delete xid and are not counted.
func (t *Table) DeleteRowsAtEpoch(rows [][]int, xid, epoch uint64) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.layoutEpoch != epoch {
		return 0, false
	}
	deleted := 0
	for si, rs := range rows {
		if len(rs) == 0 {
			continue
		}
		s := t.slices[si]
		assertRowsInSlice(rs, s.numRows, "Table.DeleteRowsAtEpoch")
		for _, r := range rs {
			if s.deletedAt(r) == 0 {
				deleted++
			}
			s.deleteRow(r, xid)
		}
	}
	t.version++
	if deleted > 0 {
		t.deleteOps++
	}
	return deleted, true
}

// UpdateRowsAtEpoch implements the mutation half of an out-of-place update
// (§4.3.3) atomically under one write-lock acquisition: append the updated
// copies in nb, then mark the original rows deleted, all at the same xid —
// provided the layout epoch still equals epoch. The append runs first and
// validates the batch before touching any row, so a malformed batch leaves
// the table unchanged (no rows are lost to a failed append). Returns whether
// the epoch matched; on a mismatch nothing is modified.
func (t *Table) UpdateRowsAtEpoch(rows [][]int, nb *Batch, xid, epoch uint64) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.layoutEpoch != epoch {
		return false, nil
	}
	if err := t.appendLocked(nb, xid); err != nil {
		return true, err
	}
	any := false
	for si, rs := range rows {
		if len(rs) == 0 {
			continue
		}
		any = true
		s := t.slices[si]
		assertRowsInSlice(rs, s.numRows, "Table.UpdateRowsAtEpoch")
		for _, r := range rs {
			s.deleteRow(r, xid)
		}
	}
	if any {
		t.deleteOps++
	}
	return true, nil
}

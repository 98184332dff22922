//go:build pcdebug

package storage

import "testing"

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", name)
		}
	}()
	fn()
}

func TestAssertRowRangesPanics(t *testing.T) {
	// Well-formed inputs must pass, including adjacent ranges.
	AssertRowRanges(nil, 10, "test")
	AssertRowRanges([]RowRange{{Start: 0, End: 4}, {Start: 4, End: 8}}, 8, "test")
	AssertRowRanges([]RowRange{{Start: 2, End: 5}, {Start: 9, End: 12}}, -1, "test")

	mustPanic(t, "empty range", func() {
		AssertRowRanges([]RowRange{{Start: 3, End: 3}}, 10, "test")
	})
	mustPanic(t, "negative start", func() {
		AssertRowRanges([]RowRange{{Start: -1, End: 3}}, 10, "test")
	})
	mustPanic(t, "overlap", func() {
		AssertRowRanges([]RowRange{{Start: 0, End: 5}, {Start: 4, End: 8}}, 10, "test")
	})
	mustPanic(t, "out of order", func() {
		AssertRowRanges([]RowRange{{Start: 6, End: 8}, {Start: 0, End: 2}}, 10, "test")
	})
	mustPanic(t, "beyond limit", func() {
		AssertRowRanges([]RowRange{{Start: 0, End: 11}}, 10, "test")
	})
}

func TestAssertZoneMapPanics(t *testing.T) {
	assertZoneMapInt(3, 3, "test")
	assertZoneMapFloat(1.5, 2.5, "test")
	mustPanic(t, "int min>max", func() { assertZoneMapInt(5, 3, "test") })
	mustPanic(t, "float min>max", func() { assertZoneMapFloat(2.5, 1.5, "test") })
}

func TestAssertMVCCPanics(t *testing.T) {
	assertMVCCRow(10, 0, 0, "test")  // live row
	assertMVCCRow(10, 10, 0, "test") // deleted in the inserting txn
	assertMVCCRow(10, 12, 0, "test") // deleted later
	mustPanic(t, "delete before insert", func() { assertMVCCRow(10, 5, 0, "test") })

	s := &Slice{insertXID: []uint64{1}, deleteXID: []uint64{0}, numRows: 1}
	assertSliceMVCC(s, "test")
	assertSliceMVCC(&Slice{insertXID: []uint64{1}, numRows: 1}, "test") // never deleted from: no deletion headers
	mustPanic(t, "header length mismatch", func() {
		bad := &Slice{insertXID: []uint64{1}, deleteXID: []uint64{0, 0}, numRows: 1}
		assertMVCCHeaders(bad, "test")
	})
}

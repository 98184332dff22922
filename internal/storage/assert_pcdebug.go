//go:build pcdebug

package storage

import "fmt"

// AssertionsEnabled reports whether the pcdebug invariant checks are compiled
// in (build or test with -tags pcdebug). The release build compiles the
// assertion functions to empty bodies, so call sites cost nothing.
const AssertionsEnabled = true

// AssertRowRanges panics unless ranges are ascending, non-overlapping, and
// within [0, limit). Adjacent ranges (Start == previous End) are allowed.
// A negative limit skips the upper-bound check. ctx names the call site for
// the panic message.
func AssertRowRanges(ranges []RowRange, limit int, ctx string) {
	prevEnd := 0
	for i, r := range ranges {
		if r.Start < 0 || r.End <= r.Start {
			panic(fmt.Sprintf("pcdebug: %s: range %d = [%d,%d) is empty or negative", ctx, i, r.Start, r.End))
		}
		if i > 0 && r.Start < prevEnd {
			panic(fmt.Sprintf("pcdebug: %s: range %d = [%d,%d) overlaps previous range ending at %d", ctx, i, r.Start, r.End, prevEnd))
		}
		if limit >= 0 && r.End > limit {
			panic(fmt.Sprintf("pcdebug: %s: range %d = [%d,%d) exceeds row bound %d", ctx, i, r.Start, r.End, limit))
		}
		prevEnd = r.End
	}
}

// assertZoneMapInt panics if an integer zone map has min > max.
func assertZoneMapInt(min, max int64, ctx string) {
	if min > max {
		panic(fmt.Sprintf("pcdebug: %s: zone map min %d > max %d", ctx, min, max))
	}
}

// assertZoneMapFloat panics if a float zone map has min > max.
func assertZoneMapFloat(min, max float64, ctx string) {
	if min > max {
		panic(fmt.Sprintf("pcdebug: %s: zone map min %g > max %g", ctx, min, max))
	}
}

// assertMVCCRow panics unless a row's visibility interval is monotone: the
// deletion xid is 0 (live) or at least the insertion xid.
func assertMVCCRow(ins, del uint64, row int, ctx string) {
	if del != 0 && del < ins {
		panic(fmt.Sprintf("pcdebug: %s: row %d deleted at xid %d before insertion at xid %d", ctx, row, del, ins))
	}
}

// assertMVCCHeaders panics unless the slice's MVCC header arrays match its
// row count; the deletion headers may also be absent altogether (no row was
// ever deleted).
func assertMVCCHeaders(s *Slice, ctx string) {
	if len(s.insertXID) != s.numRows || (s.deleteXID != nil && len(s.deleteXID) != s.numRows) {
		panic(fmt.Sprintf("pcdebug: %s: MVCC headers out of sync: %d insert / %d delete xids for %d rows",
			ctx, len(s.insertXID), len(s.deleteXID), s.numRows))
	}
}

// assertSliceMVCC runs the per-row monotonicity check over a whole slice;
// used after bulk rebuilds (Vacuum), where the O(rows) pass is amortized.
func assertSliceMVCC(s *Slice, ctx string) {
	assertMVCCHeaders(s, ctx)
	for row := 0; row < s.numRows; row++ {
		assertMVCCRow(s.insertXID[row], s.deletedAt(row), row, ctx)
	}
}

// assertRowsInSlice panics unless every captured physical row number is
// within the slice's current row count. DML relies on this: the write gate,
// held from the match scan through the mutation, keeps captured row numbers
// addressing the rows they matched.
func assertRowsInSlice(rows []int, numRows int, ctx string) {
	for _, r := range rows {
		if r < 0 || r >= numRows {
			panic(fmt.Sprintf("pcdebug: %s: row %d out of bounds for slice with %d rows", ctx, r, numRows))
		}
	}
}

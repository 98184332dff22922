package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/predcache/predcache/internal/storage"
)

// offlineReduce is the reference implementation: keep the maxRanges-1
// largest gaps (breaking ties toward earlier gaps, matching heap pop order
// is not required — only the resulting coverage and count matter).
func offlineReduce(ranges []storage.RowRange, maxRanges int) []storage.RowRange {
	if len(ranges) <= maxRanges {
		return append([]storage.RowRange(nil), ranges...)
	}
	type gap struct{ size, idx int }
	gaps := make([]gap, 0, len(ranges)-1)
	for i := 1; i < len(ranges); i++ {
		gaps = append(gaps, gap{ranges[i].Start - ranges[i-1].End, i})
	}
	sort.Slice(gaps, func(a, b int) bool { return gaps[a].size > gaps[b].size })
	keep := make(map[int]bool, maxRanges-1)
	for _, g := range gaps[:maxRanges-1] {
		keep[g.idx] = true
	}
	var out []storage.RowRange
	cur := ranges[0]
	for i := 1; i < len(ranges); i++ {
		if keep[i] {
			out = append(out, cur)
			cur = ranges[i]
		} else {
			cur.End = ranges[i].End
		}
	}
	return append(out, cur)
}

func genRanges(r *rand.Rand, n int) []storage.RowRange {
	var out []storage.RowRange
	pos := 0
	for i := 0; i < n; i++ {
		pos += 1 + r.Intn(100) // gap
		ln := 1 + r.Intn(50)
		out = append(out, storage.RowRange{Start: pos, End: pos + ln})
		pos += ln
	}
	return out
}

func coveredRows(ranges []storage.RowRange) map[int]bool {
	m := make(map[int]bool)
	for _, r := range ranges {
		for i := r.Start; i < r.End; i++ {
			m[i] = true
		}
	}
	return m
}

func TestRangeBuilderNoReduction(t *testing.T) {
	b := newRangeBuilder(10)
	b.Add(0, 5)
	b.Add(10, 12)
	got := b.Finish()
	want := []storage.RowRange{{Start: 0, End: 5}, {Start: 10, End: 12}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v", got)
	}
}

func TestRangeBuilderCoalescesAdjacent(t *testing.T) {
	b := newRangeBuilder(10)
	b.Add(0, 5)
	b.Add(5, 8)
	b.Add(8, 9)
	got := b.Finish()
	if len(got) != 1 || got[0] != (storage.RowRange{Start: 0, End: 9}) {
		t.Fatalf("got %v", got)
	}
}

func TestRangeBuilderIgnoresEmpty(t *testing.T) {
	b := newRangeBuilder(10)
	b.Add(5, 5)
	b.Add(7, 3)
	if len(b.Finish()) != 0 {
		t.Fatal("empty ranges stored")
	}
}

func TestRangeBuilderMergesSmallestGap(t *testing.T) {
	// Three ranges with gaps 2 and 50; max 2 ranges: the gap of 2 merges.
	b := newRangeBuilder(2)
	b.Add(0, 10)
	b.Add(12, 20) // gap 2
	b.Add(70, 80) // gap 50
	got := b.Finish()
	want := []storage.RowRange{{Start: 0, End: 20}, {Start: 70, End: 80}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v", got)
	}
}

func TestRangeBuilderSingleRangeLimit(t *testing.T) {
	b := newRangeBuilder(1)
	b.Add(5, 10)
	b.Add(100, 110)
	b.Add(500, 501)
	got := b.Finish()
	if len(got) != 1 || got[0] != (storage.RowRange{Start: 5, End: 501}) {
		t.Fatalf("got %v", got)
	}
}

func TestRangeBuilderPaperExample(t *testing.T) {
	// §4.1.1: "the ranges [1,2] and [4,6] are merged into a single range
	// [1,6]" (paper uses inclusive ends; ours are exclusive).
	b := newRangeBuilder(1)
	b.Add(1, 3)
	b.Add(4, 7)
	got := b.Finish()
	if len(got) != 1 || got[0] != (storage.RowRange{Start: 1, End: 7}) {
		t.Fatalf("got %v", got)
	}
}

func TestRangeBuilderMatchesOfflineReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		n := 1 + r.Intn(200)
		maxR := 1 + r.Intn(20)
		in := genRanges(r, n)
		b := newRangeBuilder(maxR)
		for _, rr := range in {
			b.Add(rr.Start, rr.End)
		}
		got := b.Finish()
		want := offlineReduce(in, maxR)
		if len(got) != len(want) {
			t.Fatalf("iter %d: got %d ranges want %d", iter, len(got), len(want))
		}
		// With distinct gap sizes the outputs must be identical; with ties
		// coverage equality is the contract. Compare coverage and count.
		gotCov := coveredRows(got)
		wantCov := coveredRows(want)
		// The builder's coverage must be a superset of the input coverage
		// and both reductions cover the same number of rows only when gap
		// ties break identically; check superset + equal range count + equal
		// total span instead.
		inCov := coveredRows(in)
		for row := range inCov {
			if !gotCov[row] {
				t.Fatalf("iter %d: builder lost row %d (false negative)", iter, row)
			}
			if !wantCov[row] {
				t.Fatalf("iter %d: reference lost row %d", iter, row)
			}
		}
		if len(gotCov) != len(wantCov) {
			t.Fatalf("iter %d: coverage %d vs reference %d", iter, len(gotCov), len(wantCov))
		}
	}
}

func TestRangeBuilderInvariantsQuick(t *testing.T) {
	f := func(seed int64, nRaw, maxRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%150 + 1
		maxR := int(maxRaw)%16 + 1
		in := genRanges(r, n)
		b := newRangeBuilder(maxR)
		for _, rr := range in {
			b.Add(rr.Start, rr.End)
		}
		out := b.Finish()
		// 1. Bounded count.
		if len(out) > maxR {
			return false
		}
		// 2. Sorted, non-overlapping, valid.
		if err := storage.ValidateRanges(out, 1<<30); err != nil {
			return false
		}
		// 3. No false negatives: every input row is covered.
		cov := coveredRows(out)
		for row := range coveredRows(in) {
			if !cov[row] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// expandBitmap is a bitmap slice entry's candidate ranges up to limit rows.
func expandBitmap(bits []uint64, rowsPerBlock, limit int) []storage.RowRange {
	se := sliceEntry{bitmap: bits, watermark: limit}
	return se.appendBitmapRanges(nil, rowsPerBlock)
}

func TestBitmapSetAndRanges(t *testing.T) {
	bits := make([]uint64, 2) // 128 blocks
	bitmapSet(bits, 0, 999, 1000)
	bitmapSet(bits, 5000, 7001, 1000) // blocks 5,6,7
	got := expandBitmap(bits, 1000, 100000)
	want := []storage.RowRange{{Start: 0, End: 1000}, {Start: 5000, End: 8000}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v", got)
	}
	// Clipping to the watermark.
	got = expandBitmap(bits, 1000, 7500)
	if got[1].End != 7500 {
		t.Fatalf("not clipped: %v", got)
	}
	// Empty set.
	if out := expandBitmap(make([]uint64, 1), 1000, 5000); len(out) != 0 {
		t.Fatalf("empty bitmap produced %v", out)
	}
	// Zero-length set is a no-op.
	before := append([]uint64(nil), bits...)
	bitmapSet(bits, 10, 10, 1000)
	if bits[0] != before[0] || bits[1] != before[1] {
		t.Fatal("empty range set bits")
	}
}

func TestBitmapNoFalseNegativesQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := genRanges(r, 1+r.Intn(50))
		limit := in[len(in)-1].End + r.Intn(100)
		rowsPerBlock := 1 + r.Intn(64)
		numBlocks := (limit + rowsPerBlock - 1) / rowsPerBlock
		bits := make([]uint64, (numBlocks+63)/64)
		for _, rr := range in {
			bitmapSet(bits, rr.Start, rr.End, rowsPerBlock)
		}
		out := expandBitmap(bits, rowsPerBlock, limit)
		if storage.ValidateRanges(out, limit) != nil {
			return false
		}
		// Counting without expanding agrees with the expansion.
		if rows, runs := bitmapCount(bits, rowsPerBlock, limit); rows != storage.RangesRowCount(out) || runs != len(out) {
			return false
		}
		cov := coveredRows(out)
		for row := range coveredRows(in) {
			if !cov[row] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

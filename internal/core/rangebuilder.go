package core

import (
	"container/heap"

	"github.com/predcache/predcache/internal/storage"
)

// rangeBuilder implements the paper's on-the-fly merged-range construction
// (§4.1.1): qualifying row ranges arrive left-to-right, in scan order;
// a min-heap of the gaps between consecutive ranges keeps at most maxRanges
// ranges alive by merging across the smallest gap whenever the limit is
// exceeded. The surviving gaps are exactly the maxRanges-1 largest gaps of
// the full input, so precision degrades gracefully: merged ranges introduce
// false positives (re-filtered by the vectorized scan) but never false
// negatives.
type rangeBuilder struct {
	max int

	starts []int
	ends   []int
	prev   []int
	next   []int
	alive  []bool

	first, last int // indexes of the first/last active range, -1 if none
	count       int

	gaps gapHeap
}

type gapItem struct {
	size int
	idx  int // the range whose left gap this is
}

type gapHeap []gapItem

func (h gapHeap) Len() int            { return len(h) }
func (h gapHeap) Less(i, j int) bool  { return h[i].size < h[j].size }
func (h gapHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *gapHeap) Push(x interface{}) { *h = append(*h, x.(gapItem)) }
func (h *gapHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// newRangeBuilder creates a builder bounded to maxRanges output ranges.
func newRangeBuilder(maxRanges int) *rangeBuilder {
	if maxRanges < 1 {
		maxRanges = 1
	}
	return &rangeBuilder{max: maxRanges, first: -1, last: -1}
}

// Add appends the next qualifying range. Ranges must arrive in ascending,
// non-overlapping order (as the scan produces them).
func (b *rangeBuilder) Add(start, end int) {
	if end <= start {
		return
	}
	if b.last >= 0 && start <= b.ends[b.last] {
		// Adjacent or overlapping with the previous range: coalesce for free.
		if end > b.ends[b.last] {
			b.ends[b.last] = end
		}
		return
	}
	idx := len(b.starts)
	b.starts = append(b.starts, start)
	b.ends = append(b.ends, end)
	b.prev = append(b.prev, b.last)
	b.next = append(b.next, -1)
	b.alive = append(b.alive, true)
	if b.last >= 0 {
		b.next[b.last] = idx
		heap.Push(&b.gaps, gapItem{size: start - b.ends[b.last], idx: idx})
	} else {
		b.first = idx
	}
	b.last = idx
	b.count++
	if b.count > b.max {
		b.mergeSmallestGap()
	}
}

// mergeSmallestGap merges the range with the globally smallest left gap into
// its predecessor. Gap values of all other ranges are unaffected because the
// merged range keeps its end and every other range keeps its start.
func (b *rangeBuilder) mergeSmallestGap() {
	item := heap.Pop(&b.gaps).(gapItem)
	i := item.idx
	p := b.prev[i]
	b.ends[p] = b.ends[i]
	b.alive[i] = false
	n := b.next[i]
	b.next[p] = n
	if n >= 0 {
		b.prev[n] = p
	}
	if b.last == i {
		b.last = p
	}
	b.count--
}

// Finish returns the merged ranges in ascending order.
func (b *rangeBuilder) Finish() []storage.RowRange {
	out := make([]storage.RowRange, 0, b.count)
	for i := b.first; i >= 0; i = b.next[i] {
		out = append(out, storage.RowRange{Start: b.starts[i], End: b.ends[i]})
	}
	storage.AssertRowRanges(out, -1, "core.rangeBuilder.Finish")
	return out
}

// reduceRanges is the offline equivalent of the streaming builder: it merges
// sorted non-overlapping ranges down to at most maxRanges by keeping the
// maxRanges-1 largest gaps. Insert uses it to bound a fresh entry and Extend
// to re-compact an extended one.
func reduceRanges(ranges []storage.RowRange, maxRanges int) []storage.RowRange {
	b := newRangeBuilder(maxRanges)
	for _, r := range ranges {
		b.Add(r.Start, r.End)
	}
	return b.Finish()
}

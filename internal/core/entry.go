package core

import (
	"math/bits"
	"time"

	"github.com/predcache/predcache/internal/storage"
)

// EntryKind selects the physical representation of cached qualifying rows.
type EntryKind uint8

const (
	// RangeIndex stores a bounded list of row ranges per slice (§4.1.1).
	RangeIndex EntryKind = iota
	// BitmapIndex stores one bit per block of rows per slice (§4.1.2).
	BitmapIndex
)

func (k EntryKind) String() string {
	if k == BitmapIndex {
		return "bitmap"
	}
	return "range"
}

// sliceEntry holds the cached qualifying rows of one data slice. Once an
// entry is published, its sliceEntry values and the arrays they point to
// are never written again: a hit's Candidates reads them without the
// cache's lock, so Extend publishes a changed copy instead.
type sliceEntry struct {
	// watermark is the number of rows of the slice that the entry covers;
	// rows appended later are scanned normally and merged in (§4.3.1).
	watermark int
	ranges    []storage.RowRange // RangeIndex
	bitmap    []uint64           // BitmapIndex: bit per rowsPerBlock rows
	estRows   int                // rows covered (before false-positive removal)
}

// entry is one cached scan expression.
type entry struct {
	key         string
	table       *storage.Table
	layoutEpoch uint64
	deps        []BuildDep
	kind        EntryKind
	slices      []*sliceEntry
	mem         int

	// Introspection bookkeeping, written under the owning Cache's mutex:
	// how often the entry served a lookup and when. Surfaced through
	// pc.cache_entries.
	hits      int64
	createdAt time.Time
	lastHit   time.Time

	// LRU bookkeeping (owned by Cache).
	lruPrev, lruNext *entry
}

func (e *entry) stale() bool {
	if e.table.LayoutEpoch() != e.layoutEpoch {
		return true
	}
	for _, d := range e.deps {
		if d.Stale() {
			return true
		}
	}
	return false
}

func (e *entry) estRows() int {
	n := 0
	for i := range e.slices {
		n += e.slices[i].estRows
	}
	return n
}

func (e *entry) memBytes() int {
	n := 128 + len(e.key) // struct + key overhead
	for i := range e.slices {
		n += 64 + len(e.slices[i].ranges)*16 + len(e.slices[i].bitmap)*8
	}
	return n
}

// bitmapSet sets the block bits covering rows [start, end).
func bitmapSet(bits []uint64, start, end, rowsPerBlock int) {
	if end <= start {
		return
	}
	fromBlk := start / rowsPerBlock
	toBlk := (end - 1) / rowsPerBlock
	for b := fromBlk; b <= toBlk; b++ {
		bits[b>>6] |= 1 << (b & 63)
	}
}

// appendBitmapRanges appends every run of the slice's set bitmap blocks to
// dst as one row range, the last clipped to the watermark. It only reads
// the sliceEntry, which is never written once published.
func (se *sliceEntry) appendBitmapRanges(dst []storage.RowRange, rowsPerBlock int) []storage.RowRange {
	n := (se.watermark + rowsPerBlock - 1) / rowsPerBlock
	for b := nextBlock(se.bitmap, 0, n, true); b < n; {
		e := nextBlock(se.bitmap, b, n, false)
		dst = append(dst, storage.RowRange{Start: b * rowsPerBlock, End: min(e*rowsPerBlock, se.watermark)})
		b = nextBlock(se.bitmap, e, n, true)
	}
	return dst
}

// nextBlock returns the first block at or after b, below n, whose bit is
// set (or clear, when set is false), or n if there is none.
func nextBlock(bm []uint64, b, n int, set bool) int {
	for b < n {
		w := bm[b>>6]
		if !set {
			w = ^w
		}
		if w >>= uint(b & 63); w != 0 {
			return min(b+bits.TrailingZeros64(w), n)
		}
		b = (b | 63) + 1
	}
	return n
}

// bitmapCount returns the rows the set blocks below limit's block cover,
// clipped to limit, and the number of runs of set blocks: what expanding
// the bitmap would yield, counted without expanding it.
func bitmapCount(bm []uint64, rowsPerBlock, limit int) (rows, runs int) {
	n := (limit + rowsPerBlock - 1) / rowsPerBlock
	blocks := 0
	var prevTop uint64 // the previous word's last bit
	for w := 0; w*64 < n; w++ {
		word := bm[w]
		if rem := n - w*64; rem < 64 {
			word &= 1<<uint(rem) - 1
		}
		blocks += bits.OnesCount64(word)
		runs += bits.OnesCount64(word &^ (word<<1 | prevTop)) // set bits whose predecessor is clear
		prevTop = word >> 63
	}
	rows = blocks * rowsPerBlock
	if last := n - 1; last >= 0 && bm[last>>6]&(1<<uint(last&63)) != 0 {
		rows -= n*rowsPerBlock - limit
	}
	return rows, runs
}

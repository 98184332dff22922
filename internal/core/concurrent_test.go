package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/predcache/predcache/internal/storage"
)

// TestConcurrentHitsSeePublishedState: a hit hands out the entry's slice
// state itself and the scan expands it without the cache's lock, so a
// published state must never change. One writer moves a key through
// Extend, re-Insert and InvalidateTable while readers take hits on it and
// expand every slice through AppendRanges into a reused buffer. Each
// expansion must be ascending, clipped to its watermark, and equal to the
// expansion of a state the writer published — identified by its watermark
// vector, which grows with every write. Run it with -race too: a write to
// published state is then also a reported race.
func TestConcurrentHitsSeePublishedState(t *testing.T) {
	for _, kind := range []EntryKind{BitmapIndex, RangeIndex} {
		t.Run(kind.String(), func(t *testing.T) { testConcurrentHits(t, kind) })
	}
}

func testConcurrentHits(t *testing.T, kind EntryKind) {
	const slices, rowsPerBlock, writes, readers = 2, 64, 3000, 3
	tbl := newTestTable(t, "t", slices, 100)
	c := NewCache(Config{Kind: kind, RowsPerBlock: rowsPerBlock, MaxRanges: 1 << 20})
	key := simpleKey("t", "p")
	ks := key.String()

	// The writer's model of the entry: per slice, the ranges it holds (a
	// range entry stores them as given; they never touch) and the blocks
	// they set (a bitmap entry's view of them).
	type model struct {
		ranges [][]storage.RowRange
		blocks [][]bool
		wm     []int
	}
	expand := func(m *model, i int) []storage.RowRange {
		if kind == RangeIndex {
			return append([]storage.RowRange(nil), m.ranges[i]...)
		}
		var out []storage.RowRange
		for b := 0; b < len(m.blocks[i]); b++ {
			if !m.blocks[i][b] {
				continue
			}
			start := b
			for b < len(m.blocks[i]) && m.blocks[i][b] {
				b++
			}
			out = append(out, storage.RowRange{Start: start * rowsPerBlock, End: min(b*rowsPerBlock, m.wm[i])})
		}
		return out
	}
	add := func(m *model, i int, rs []storage.RowRange) {
		m.ranges[i] = append(m.ranges[i], rs...)
		for len(m.blocks[i])*rowsPerBlock < m.wm[i] {
			m.blocks[i] = append(m.blocks[i], false)
		}
		for _, r := range rs {
			for b := r.Start / rowsPerBlock; b <= (r.End-1)/rowsPerBlock; b++ {
				m.blocks[i][b] = true
			}
		}
	}
	// gen returns up to four ascending ranges inside (lo, hi), none touching
	// lo or another.
	gen := func(r *rand.Rand, lo, hi int) []storage.RowRange {
		var out []storage.RowRange
		pos := lo + 1
		for k := r.Intn(5); k > 0 && pos < hi; k-- {
			start := pos + r.Intn(max(1, (hi-pos)/2))
			end := min(hi, start+1+r.Intn(3*rowsPerBlock))
			if start >= end {
				break
			}
			out = append(out, storage.RowRange{Start: start, End: end})
			pos = end + 1
		}
		return out
	}
	wmKey := func(wm func(int) int) string {
		s := ""
		for i := 0; i < slices; i++ {
			s += fmt.Sprintf("%d/", wm(i))
		}
		return s
	}

	var published sync.Map // watermark vector → per-slice expansions
	var done atomic.Bool
	var hits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []storage.RowRange
			for ; !done.Load(); runtime.Gosched() {
				cand, ok := c.Best([]string{ks})
				if !ok {
					continue
				}
				hits.Add(1)
				runtime.Gosched() // the writer may go on while a scan holds its hit
				want, ok := published.Load(wmKey(cand.Watermark))
				if !ok {
					t.Errorf("hit on watermarks %s, which were never published", wmKey(cand.Watermark))
					return
				}
				for i := 0; i < cand.NumSlices(); i++ {
					buf = cand.AppendRanges(i, buf[:0])
					if err := storage.ValidateRanges(buf, cand.Watermark(i)); err != nil {
						t.Errorf("slice %d at watermark %d: %v", i, cand.Watermark(i), err)
						return
					}
					if w := want.([][]storage.RowRange)[i]; fmt.Sprint(buf) != fmt.Sprint(w) {
						t.Errorf("slice %d at watermarks %s: hit expands to %v, published %v", i, wmKey(cand.Watermark), buf, w)
						return
					}
				}
			}
		}()
	}

	r := rand.New(rand.NewSource(46))
	var m *model
	top := 0 // every watermark so far is below it
	publish := func() {
		exp := make([][]storage.RowRange, slices)
		for i := range exp {
			exp[i] = expand(m, i)
		}
		published.Store(wmKey(func(i int) int { return m.wm[i] }), exp)
	}
	insert := func() {
		m = &model{ranges: make([][]storage.RowRange, slices), blocks: make([][]bool, slices), wm: make([]int, slices)}
		perSlice := make([][]storage.RowRange, slices)
		for i := range m.wm {
			m.wm[i] = top + 1 + r.Intn(4*rowsPerBlock)
			perSlice[i] = gen(r, -1, m.wm[i])
			add(m, i, perSlice[i])
		}
		for _, w := range m.wm {
			top = max(top, w)
		}
		publish()
		c.Insert(key, tbl, tbl.LayoutEpoch(), nil, perSlice, append([]int(nil), m.wm...))
	}
	insert()
	for op := 0; op < writes; op++ {
		switch x := r.Intn(100); {
		case x < 85 && m != nil:
			i := r.Intn(slices)
			old := m.wm[i]
			m.wm[i] = old + 1 + r.Intn(2*rowsPerBlock)
			tail := gen(r, old, m.wm[i])
			add(m, i, tail)
			top = max(top, m.wm[i])
			publish()
			c.Extend(ks, i, tail, m.wm[i])
		case x < 95:
			insert()
		default:
			c.InvalidateTable("t")
			m = nil
		}
		// Re-insert after a drop so readers mostly hit.
		if m == nil && r.Intn(4) == 0 {
			insert()
		}
		// Let the readers run between writes on one processor too.
		runtime.Gosched()
	}
	// Every run checks hits: keep an entry until a reader has taken one.
	if m == nil {
		insert()
	}
	for hits.Load() == 0 {
		runtime.Gosched()
	}
	done.Store(true)
	wg.Wait()
}

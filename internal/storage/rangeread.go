package storage

// Partial decode: materialize only the block-relative sub-range [lo, hi) of
// a block instead of all BlockSize rows. Cache-hit scans and late
// materialization use this so a 3-row candidate span costs 3 decodes, not
// 1,000. Each encoding seeks in O(1) (raw, FOR) or O(runs) (RLE).

// ReadIntRange decodes rows [lo, hi) of block i into dst[:hi-lo] and returns
// the number of values written. Row indexes are block-relative; dst must
// have room for hi-lo values. Block indexes past the sealed blocks refer to
// the open tail, where hi is clamped to the tail length.
func (c *ColumnStore) ReadIntRange(i, lo, hi int, dst []int64) int {
	if i >= len(c.blocks) {
		if hi > len(c.tailInts) {
			hi = len(c.tailInts)
		}
		if lo >= hi {
			return 0
		}
		return copy(dst, c.tailInts[lo:hi])
	}
	b := c.blocks[i]
	if hi > b.N {
		hi = b.N
	}
	if lo >= hi {
		return 0
	}
	n := hi - lo
	switch b.Enc {
	case EncRaw:
		for j := 0; j < n; j++ {
			dst[j] = int64(b.Words[lo+j])
		}
	case EncRLE:
		rleReadRange(b.Words, lo, hi, dst)
	case EncFOR:
		base := int64(b.Words[0])
		width := forWidth(b.MinI, b.MaxI)
		if width == 0 {
			for j := 0; j < n; j++ {
				dst[j] = base
			}
		} else {
			unpackBitsFrom(dst[:n], b.Words[1:], base, width, lo, n)
		}
	}
	return n
}

// rleReadRange decodes rows [lo, hi) of an RLE payload into dst: skip whole
// runs before lo, then emit clipped runs until hi.
func rleReadRange(words []uint64, lo, hi int, dst []int64) {
	pos := 0
	out := 0
	for w := 0; w+1 < len(words) && pos < hi; w += 2 {
		run := int(words[w+1])
		runEnd := pos + run
		if runEnd > lo {
			v := int64(words[w])
			start, end := pos, runEnd
			if start < lo {
				start = lo
			}
			if end > hi {
				end = hi
			}
			for j := start; j < end; j++ {
				dst[out] = v
				out++
			}
		}
		pos = runEnd
	}
}

// ReadIntRows decodes the block-relative rows of block i that rows lists,
// ascending and each below the block's row count, into dst[:len(rows)].
// Each row costs O(1) (raw, FOR, the open tail), and an RLE block is one
// pass over its runs, where a ReadIntRange per scattered row would seek
// once for each.
func (c *ColumnStore) ReadIntRows(i int, rows []uint16, dst []int64) {
	if i >= len(c.blocks) {
		for j, r := range rows {
			dst[j] = c.tailInts[r]
		}
		return
	}
	b := c.blocks[i]
	switch b.Enc {
	case EncRaw:
		for j, r := range rows {
			dst[j] = int64(b.Words[r])
		}
	case EncRLE:
		w, end := 0, int(b.Words[1]) // run w/2 ends before row end
		for j, r := range rows {
			for int(r) >= end {
				w += 2
				end += int(b.Words[w+1])
			}
			dst[j] = int64(b.Words[w])
		}
	case EncFOR:
		base := int64(b.Words[0])
		width := uint(forWidth(b.MinI, b.MaxI))
		if width == 0 {
			for j := range rows {
				dst[j] = base
			}
			return
		}
		mask, src := ^uint64(0)>>(64-width), b.Words[1:]
		for j, r := range rows {
			dst[j] = base + int64(forField(src, uint(r)*width, width, mask))
		}
	}
}

// ReadFloatRows copies the block-relative rows of float block i that rows
// lists into dst[:len(rows)], as ReadIntRows does for integers.
func (c *ColumnStore) ReadFloatRows(i int, rows []uint16, dst []float64) {
	src := c.tailFloats
	if i < len(c.blocks) {
		src = c.blocks[i].Floats
	}
	for j, r := range rows {
		dst[j] = src[r]
	}
}

// ReadFloatRange copies rows [lo, hi) of float block i into dst and returns
// the number of values written. Float blocks are stored uncompressed, so
// this is a clipped copy.
func (c *ColumnStore) ReadFloatRange(i, lo, hi int, dst []float64) int {
	src := c.tailFloats
	if i < len(c.blocks) {
		src = c.blocks[i].Floats
	}
	if hi > len(src) {
		hi = len(src)
	}
	if lo >= hi {
		return 0
	}
	return copy(dst, src[lo:hi])
}

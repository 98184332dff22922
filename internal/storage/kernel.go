package storage

import "math/bits"

// Encoded-domain scan kernels: a leaf predicate is ANDed into a per-block
// selection bitmap directly on the block's stored form, without materializing
// the 1,000-row vector first. RLE blocks are evaluated per run in O(runs);
// FOR blocks compare in the packed delta domain, 64 rows per mask word; and
// blocks whose zone maps fully decide the predicate (including width-0
// constant blocks) are resolved with a single comparison. EncRaw blocks and
// the open tail report ok=false — for them decode-then-filter is already the
// cheapest plan.

// IntPredKind selects the shape of an IntPred.
type IntPredKind uint8

const (
	// IntPredRange matches Lo <= v <= Hi (Not inverts the interval). An
	// empty interval (Lo > Hi) matches nothing (everything when Not).
	IntPredRange IntPredKind = iota
	// IntPredSet matches v ∈ Set (Not inverts).
	IntPredSet
)

// IntPred is a leaf integer predicate in the form the encoded-domain kernels
// evaluate: interval membership or set membership over the int64
// representation (raw integers, dates, bools, dictionary codes).
type IntPred struct {
	Kind   IntPredKind
	Not    bool
	Lo, Hi int64
	Set    map[int64]struct{}
	// SetVals lists Set's members for zone-map short-circuiting; nil when the
	// values are unordered dictionary codes (no bound reasoning possible).
	SetVals []int64
	// bitset, when non-nil, is Set in dense form. NewIntSetPred builds it
	// when the members span at most maxSetBits values; the FOR kernel then
	// probes it with one add in the delta domain instead of hashing every row
	// into Set.
	bitset *intBitset
}

// intBitset holds a set of integers as a bitmap: bit v-min is set for every
// member v.
type intBitset struct {
	min  int64
	bits []uint64
}

// maxSetBits bounds the value span a set predicate's bitset may cover (512
// bytes): IN-lists over small domains and dictionary codes fit, and a wide
// list costs a map probe per row rather than a per-scan allocation that
// scales with its span.
const maxSetBits = 4096

// NewIntSetPred returns the predicate v ∈ set. vals lists the members when
// their order is meaningful for zone maps (nil for dictionary codes).
func NewIntSetPred(set map[int64]struct{}, vals []int64) IntPred {
	p := IntPred{Kind: IntPredSet, Set: set, SetVals: vals}
	if len(set) == 0 {
		return p
	}
	first := true
	var min, max int64
	for v := range set {
		if first || v < min {
			min = v
		}
		if first || v > max {
			max = v
		}
		first = false
	}
	span := uint64(max) - uint64(min) // exact even when max-min overflows int64
	if span >= maxSetBits {
		return p
	}
	p.bitset = &intBitset{min: min, bits: make([]uint64, span/64+1)}
	for v := range set {
		i := uint64(v) - uint64(min)
		p.bitset.bits[i>>6] |= 1 << (i & 63)
	}
	return p
}

// Match reports whether a single value satisfies the predicate.
func (p *IntPred) Match(v int64) bool {
	if p.Kind == IntPredSet {
		_, ok := p.Set[v]
		return ok != p.Not
	}
	return (v >= p.Lo && v <= p.Hi) != p.Not
}

// blockDecision is the zone-map verdict for one block.
type blockDecision uint8

const (
	decideScan blockDecision = iota // rows must be inspected
	decideAllPass
	decideAllFail
)

// decide classifies a block with exact value bounds [min, max] against p.
// Constant blocks (min == max) are always fully decided.
func (p *IntPred) decide(min, max int64) blockDecision {
	if min == max {
		if p.Match(min) {
			return decideAllPass
		}
		return decideAllFail
	}
	switch p.Kind {
	case IntPredRange:
		empty := p.Lo > p.Hi
		disjoint := empty || p.Hi < min || p.Lo > max
		covers := !empty && p.Lo <= min && max <= p.Hi
		if p.Not {
			if disjoint {
				return decideAllPass
			}
			if covers {
				return decideAllFail
			}
		} else {
			if disjoint {
				return decideAllFail
			}
			if covers {
				return decideAllPass
			}
		}
	case IntPredSet:
		if p.SetVals != nil && !p.Not {
			for _, v := range p.SetVals {
				if v >= min && v <= max {
					return decideScan
				}
			}
			return decideAllFail
		}
	}
	return decideScan
}

// AppendRange appends [lo, hi) to dst, coalescing with the previous range
// when adjacent.
func AppendRange(dst []RowRange, lo, hi int) []RowRange {
	if n := len(dst); n > 0 && dst[n-1].End == lo {
		dst[n-1].End = hi
		return dst
	}
	return append(dst, RowRange{Start: lo, End: hi})
}

// BlockMask is the selection bitmap of one block: bit r is set while
// block-relative row r is still a candidate. A scan seeds it from the
// candidate ranges, every kernel ANDs its predicate in, and the survivors are
// turned into row ranges (or a selection vector) once at the end. Bits at or
// beyond the block's row count are never set.
type BlockMask [(BlockSize + 63) / 64]uint64

// SetRange marks rows [lo, hi) as candidates.
func (m *BlockMask) SetRange(lo, hi int) {
	if lo >= hi {
		return
	}
	first, last := lo>>6, (hi-1)>>6
	firstMask := ^uint64(0) << (uint(lo) & 63)
	lastMask := ^uint64(0) >> (63 - uint(hi-1)&63)
	if first == last {
		m[first] |= firstMask & lastMask
		return
	}
	m[first] |= firstMask
	for w := first + 1; w < last; w++ {
		m[w] = ^uint64(0)
	}
	m[last] |= lastMask
}

// Empty reports whether no row is selected.
func (m *BlockMask) Empty() bool {
	var any uint64
	for _, w := range m {
		any |= w
	}
	return any == 0
}

// AppendRanges appends the selected rows to dst as coalesced ranges offset by
// base, in ascending order.
func (m *BlockMask) AppendRanges(dst []RowRange, base int) []RowRange {
	for w, word := range m {
		off := base + w<<6
		for word != 0 {
			start := bits.TrailingZeros64(word)
			// Adding the lowest set bit carries through its run of ones:
			// the carry lands on the first zero above the run (or falls off
			// the top), and the AND drops both the run and the carry.
			next := word + word&-word
			end := bits.TrailingZeros64(next)
			word &= next
			dst = AppendRange(dst, off+start, off+end)
		}
	}
	return dst
}

// AppendRows appends the selected block-relative rows to sel in ascending
// order.
func (m *BlockMask) AppendRows(sel []int) []int {
	for w, word := range m {
		for ; word != 0; word &= word - 1 {
			sel = append(sel, w<<6+bits.TrailingZeros64(word))
		}
	}
	return sel
}

// EvalPredMask ANDs p into the candidate mask of block i: rows that fail the
// predicate are cleared, rows outside the mask are never inspected. ok is
// false — and m untouched — when this block has no encoded-domain kernel
// (float columns, EncRaw payloads not decided by their bounds, or the open
// tail); the caller must fall back to decode-then-filter.
func (c *ColumnStore) EvalPredMask(i int, p *IntPred, m *BlockMask) (ok bool) {
	if c.Typ == Float64 || i >= len(c.blocks) {
		return false
	}
	b := c.blocks[i]
	// Zone-map short-circuit: bounds are exact (computed at seal), so a
	// decided block costs O(1) regardless of encoding — this is also the
	// single-comparison path for width-0 constant FOR blocks.
	switch p.decide(b.MinI, b.MaxI) {
	case decideAllFail:
		*m = BlockMask{}
		return true
	case decideAllPass:
		return true
	}
	switch b.Enc {
	case EncRLE:
		evalRLEMask(b.Words, p, m)
		return true
	case EncFOR:
		evalFORMask(b, p, m)
		return true
	}
	return false
}

// EvalPredRanges evaluates p over the block-relative candidate spans of
// block i, appending the qualifying (still block-relative) sub-ranges to dst
// and returning it: spans → mask → EvalPredMask → ranges, the same kernels
// the scan runs, for callers that hold ranges rather than a mask. ok is as
// for EvalPredMask. spans must be sorted, non-overlapping and within
// [0, block rows).
func (c *ColumnStore) EvalPredRanges(i int, p *IntPred, spans []RowRange, dst []RowRange) (out []RowRange, ok bool) {
	var m BlockMask
	for _, sp := range spans {
		m.SetRange(sp.Start, sp.End)
	}
	if !c.EvalPredMask(i, p, &m) {
		return dst, false
	}
	return m.AppendRanges(dst, 0), true
}

// evalRLEMask walks the (value, run) pairs once and keeps only the candidates
// inside matching runs: O(runs) with no per-row work.
func evalRLEMask(words []uint64, p *IntPred, m *BlockMask) {
	var match BlockMask
	pos := 0
	for w := 0; w+1 < len(words); w += 2 {
		end := pos + int(words[w+1])
		if p.Match(int64(words[w])) {
			match.SetRange(pos, end)
		}
		pos = end
	}
	for w := range m {
		m[w] &= match[w]
	}
}

// deltaPred is an IntPred translated once per block into the FOR delta
// domain d = v - base, so the per-field test needs no base addition.
type deltaPred struct {
	kind deltaKind
	// deltaInterval: d matches iff (d-lo) <= span as unsigned integers — one
	// compare covers both bounds because d < lo wraps to a huge value.
	lo, span uint64
	// deltaBitset: d matches iff bit d+off of bits is set.
	off  uint64
	bits []uint64
	// deltaMap: d matches iff base+d ∈ set.
	set  map[int64]struct{}
	base int64
}

type deltaKind uint8

const (
	deltaInterval deltaKind = iota
	deltaBitset
	deltaMap
)

// match returns 1 when delta d satisfies the (un-negated) predicate, else 0.
func (t *deltaPred) match(d uint64) uint64 {
	switch t.kind {
	case deltaInterval:
		_, fail := bits.Sub64(t.span, d-t.lo, 0)
		return fail ^ 1
	case deltaBitset:
		// A value below the bitset's minimum wraps past every member's
		// index (indexes never exceed max-min), so it reads a zero bit or
		// falls off the end.
		i := d + t.off
		if i>>6 >= uint64(len(t.bits)) {
			return 0
		}
		return t.bits[i>>6] >> (i & 63) & 1
	default:
		if _, ok := t.set[t.base+int64(d)]; ok {
			return 1
		}
		return 0
	}
}

// denseWordMin is the candidate count from which a mask word is evaluated by
// testing all 64 fields in sequence instead of extracting the set bits one by
// one: a sequential field costs under half of a random extract (about 1.5 ns
// against 3.3 ns plus 8 ns per word), so the two cross near 26 candidates, and
// the sequential loop's time does not depend on the data.
const denseWordMin = 24

// evalFORMask evaluates p over the packed delta fields of a FOR block, one
// mask word (64 rows) at a time. The 64 fields of word w start exactly at
// payload word w*width, so every word is an independent, word-aligned group.
func evalFORMask(b *Block, p *IntPred, m *BlockMask) {
	base := int64(b.Words[0])
	width := forWidth(b.MinI, b.MaxI) // > 0: width 0 was decided by bounds
	src := b.Words[1:]

	t := deltaPred{base: base}
	switch {
	case p.Kind == IntPredRange:
		// decide() ruled out empty, disjoint and covering intervals, so the
		// interval clamped to the block's bounds is non-empty. Wrapping
		// uint64 subtraction is exact two's complement.
		if p.Lo > base {
			t.lo = uint64(p.Lo) - uint64(base)
		}
		hi := p.Hi
		if hi > b.MaxI {
			hi = b.MaxI
		}
		t.span = uint64(hi) - uint64(base) - t.lo
	case p.bitset != nil:
		t.kind, t.bits, t.off = deltaBitset, p.bitset.bits, uint64(base)-uint64(p.bitset.min)
	default:
		t.kind, t.set = deltaMap, p.Set
	}
	var invert uint64
	if p.Not {
		invert = ^uint64(0)
	}

	fieldMask := ^uint64(0) >> (64 - uint(width))
	var deltas [64]int64
	for w, cand := range m {
		if cand == 0 {
			continue
		}
		var match uint64
		if bits.OnesCount64(cand) >= denseWordMin {
			n := b.N - w<<6
			if n > 64 {
				n = 64
			}
			if t.kind == deltaInterval {
				match = intervalMask(src[w*width:], uint(width), n, t.lo, t.span)
			} else {
				unpackBitsFrom(deltas[:n], src, 0, width, w<<6, n)
				for j := n - 1; j >= 0; j-- {
					match = match<<1 | t.match(uint64(deltas[j]))
				}
			}
		} else {
			for rest := cand; rest != 0; rest &= rest - 1 {
				r := uint(bits.TrailingZeros64(rest))
				d := forField(src, (uint(w)<<6+r)*uint(width), uint(width), fieldMask)
				match |= t.match(d) << r
			}
		}
		m[w] = cand & (match ^ invert)
	}
}

// intervalMask tests the first n ≤ 64 width-bit fields of group against the
// delta interval [lo, lo+span] and returns one result bit per field. The loop
// has no data-dependent branch: each field costs an extract, one subtract
// and one borrow.
func intervalMask(group []uint64, width uint, n int, lo, span uint64) uint64 {
	fieldMask := ^uint64(0) >> (64 - width)
	var fails uint64
	bitPos := uint(0)
	for j := 0; j < n; j++ {
		_, fail := bits.Sub64(span, forField(group, bitPos, width, fieldMask)-lo, 0)
		fails = fails>>1 | fail<<63
		bitPos += width
	}
	return ^fails >> (uint(64-n) & 63)
}

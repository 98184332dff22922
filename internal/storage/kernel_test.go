package storage

import (
	"math"
	"math/rand"
	"testing"
)

// makeIntColumn builds a sealed Int64 column store from vals (plus an open
// tail for any remainder past the last full block).
func makeIntColumn(t *testing.T, vals []int64) *ColumnStore {
	t.Helper()
	c := newColumnStore(Int64, nil)
	for _, v := range vals {
		c.appendInt(v)
	}
	return c
}

// kernelTestPatterns produces one value pattern per encoding, including the
// width-0 constant case, a cross-word FOR width, and extreme FOR bases.
func kernelTestPatterns(n int) map[string][]int64 {
	r := rand.New(rand.NewSource(42))
	pats := make(map[string][]int64)

	constant := make([]int64, n) // FOR width 0
	for i := range constant {
		constant[i] = 77
	}
	pats["constant-for0"] = constant

	runs := make([]int64, n) // RLE: few long runs of far-apart values
	for i := range runs {
		runs[i] = int64((i/100)%7) * 1e17
	}
	pats["runs-rle"] = runs

	narrow := make([]int64, n) // FOR width 13 (crosses word boundaries)
	for i := range narrow {
		narrow[i] = 5000 + r.Int63n(1<<13)
	}
	pats["narrow-for13"] = narrow

	wide := make([]int64, n) // raw: full-range values, width 64
	for i := range wide {
		wide[i] = int64(r.Uint64())
	}
	pats["wide-raw"] = wide

	extreme := make([]int64, n) // FOR width 7 with base MinInt64
	for i := range extreme {
		extreme[i] = math.MinInt64 + r.Int63n(100)
	}
	pats["extreme-for"] = extreme

	return pats
}

func wantEncoding(name string) (Encoding, bool) {
	switch name {
	case "constant-for0", "narrow-for13", "extreme-for":
		return EncFOR, true
	case "runs-rle":
		return EncRLE, true
	case "wide-raw":
		return EncRaw, true
	}
	return 0, false
}

// TestReadIntRangeEquivalence checks ReadIntRange against ReadIntBlock
// sub-slicing for every encoding, every boundary alignment, and the tail.
func TestReadIntRangeEquivalence(t *testing.T) {
	const n = BlockSize + 250 // one sealed block plus an open tail
	r := rand.New(rand.NewSource(7))
	for name, vals := range kernelTestPatterns(n) {
		c := makeIntColumn(t, vals)
		if enc, ok := wantEncoding(name); ok {
			if got := c.blocks[0].Enc; got != enc {
				t.Fatalf("%s: block encoding = %v, want %v", name, got, enc)
			}
		}
		full := make([]int64, BlockSize)
		part := make([]int64, BlockSize)
		for bi := 0; bi < 2; bi++ { // block 0 sealed, block 1 = tail
			bn := c.ReadIntBlock(bi, full)
			cases := [][2]int{{0, bn}, {0, 1}, {bn - 1, bn}, {3, 4}, {bn / 3, 2 * bn / 3}, {5, 5}, {bn, bn + 50}}
			for i := 0; i < 40; i++ {
				lo := r.Intn(bn + 1)
				cases = append(cases, [2]int{lo, lo + r.Intn(bn+1-lo)})
			}
			for _, cse := range cases {
				lo, hi := cse[0], cse[1]
				got := c.ReadIntRange(bi, lo, hi, part)
				wantHi := hi
				if wantHi > bn {
					wantHi = bn
				}
				want := 0
				if lo < wantHi {
					want = wantHi - lo
				}
				if got != want {
					t.Fatalf("%s: block %d ReadIntRange(%d,%d) n = %d, want %d", name, bi, lo, hi, got, want)
				}
				for j := 0; j < want; j++ {
					if part[j] != full[lo+j] {
						t.Fatalf("%s: block %d ReadIntRange(%d,%d)[%d] = %d, want %d",
							name, bi, lo, hi, j, part[j], full[lo+j])
					}
				}
			}
			// ReadIntRows over every row, the first and last, and random
			// ascending subsets of every density.
			rowSets := [][]uint16{everyRow(bn), {0}, {uint16(bn - 1)}, {0, uint16(bn - 1)}}
			for i := 0; i < 40; i++ {
				rowSets = append(rowSets, randomRows(r, bn, r.Float64()))
			}
			for _, rows := range rowSets {
				c.ReadIntRows(bi, rows, part)
				for j, row := range rows {
					if part[j] != full[row] {
						t.Fatalf("%s: block %d ReadIntRows row %d = %d, want %d", name, bi, row, part[j], full[row])
					}
				}
			}
		}
	}
}

// everyRow lists rows 0 up to n.
func everyRow(n int) []uint16 {
	rows := make([]uint16, n)
	for i := range rows {
		rows[i] = uint16(i)
	}
	return rows
}

// randomRows lists each of rows 0 up to n with probability p, ascending.
func randomRows(r *rand.Rand, n int, p float64) []uint16 {
	var rows []uint16
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			rows = append(rows, uint16(i))
		}
	}
	return rows
}

// TestReadFloatRangeEquivalence checks the float range reader, including the
// open tail and out-of-range clamping.
func TestReadFloatRangeEquivalence(t *testing.T) {
	const n = BlockSize + 125
	c := newColumnStore(Float64, nil)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		c.appendFloat(r.Float64() * 1000)
	}
	full := make([]float64, BlockSize)
	part := make([]float64, BlockSize)
	for bi := 0; bi < 2; bi++ {
		bn := c.ReadFloatBlock(bi, full)
		for i := 0; i < 50; i++ {
			lo := r.Intn(bn + 1)
			hi := lo + r.Intn(bn+2-lo) // occasionally past the end
			got := c.ReadFloatRange(bi, lo, hi, part)
			wantHi := hi
			if wantHi > bn {
				wantHi = bn
			}
			want := 0
			if lo < wantHi {
				want = wantHi - lo
			}
			if got != want {
				t.Fatalf("block %d ReadFloatRange(%d,%d) n = %d, want %d", bi, lo, hi, got, want)
			}
			for j := 0; j < want; j++ {
				if part[j] != full[lo+j] {
					t.Fatalf("block %d ReadFloatRange(%d,%d)[%d] = %v, want %v", bi, lo, hi, j, part[j], full[lo+j])
				}
			}
			rows := randomRows(r, bn, r.Float64())
			c.ReadFloatRows(bi, rows, part)
			for j, row := range rows {
				if part[j] != full[row] {
					t.Fatalf("block %d ReadFloatRows row %d = %v, want %v", bi, row, part[j], full[row])
				}
			}
		}
	}
}

// predForOp builds the IntPred the expr planner would emit for `col op c`,
// including the MinInt64/MaxInt64 empty-interval edges.
func predForOp(op string, c int64) IntPred {
	switch op {
	case "eq":
		return IntPred{Kind: IntPredRange, Lo: c, Hi: c}
	case "ne":
		return IntPred{Kind: IntPredRange, Lo: c, Hi: c, Not: true}
	case "lt":
		if c == math.MinInt64 {
			return IntPred{Kind: IntPredRange, Lo: 0, Hi: -1} // empty
		}
		return IntPred{Kind: IntPredRange, Lo: math.MinInt64, Hi: c - 1}
	case "le":
		return IntPred{Kind: IntPredRange, Lo: math.MinInt64, Hi: c}
	case "gt":
		if c == math.MaxInt64 {
			return IntPred{Kind: IntPredRange, Lo: 0, Hi: -1} // empty
		}
		return IntPred{Kind: IntPredRange, Lo: c + 1, Hi: math.MaxInt64}
	case "ge":
		return IntPred{Kind: IntPredRange, Lo: c, Hi: math.MaxInt64}
	}
	panic("unknown op " + op)
}

// opMatches is the scalar reference semantics for predForOp.
func opMatches(op string, v, c int64) bool {
	switch op {
	case "eq":
		return v == c
	case "ne":
		return v != c
	case "lt":
		return v < c
	case "le":
		return v <= c
	case "gt":
		return v > c
	case "ge":
		return v >= c
	}
	panic("unknown op " + op)
}

// refRanges is the decode-then-filter oracle: materialize the block, test
// every candidate row with match, and emit coalesced qualifying ranges.
func refRanges(full []int64, spans []RowRange, match func(int64) bool) []RowRange {
	var out []RowRange
	for _, sp := range spans {
		for r := sp.Start; r < sp.End; r++ {
			if match(full[r]) {
				out = AppendRange(out, r, r+1)
			}
		}
	}
	return out
}

func rangesEqual(a, b []RowRange) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// spanShapes returns candidate-span layouts for a block of bn rows: full
// block, nothing, empty spans, single rows, 63/64/65-row spans at and across
// mask-word boundaries, and random fragments.
func spanShapes(bn int, r *rand.Rand) [][]RowRange {
	clip := func(spans ...RowRange) []RowRange {
		var out []RowRange
		prevEnd := 0
		for _, sp := range spans {
			if sp.End > bn {
				sp.End = bn
			}
			if sp.Start >= prevEnd && sp.Start <= sp.End && sp.Start < bn {
				out = append(out, sp)
				prevEnd = sp.End
			}
		}
		return out
	}
	shapes := [][]RowRange{
		{{Start: 0, End: bn}},
		nil,
		clip(RowRange{Start: 17, End: 17}),
		clip(RowRange{Start: 0, End: 1}, RowRange{Start: bn / 2, End: bn/2 + 3}, RowRange{Start: bn - 1, End: bn}),
		clip(RowRange{Start: 63, End: 64}, RowRange{Start: 64, End: 65}, RowRange{Start: 127, End: 129}),
		clip(RowRange{Start: 60, End: 70}, RowRange{Start: 120, End: 200}),
	}
	for _, n := range []int{63, 64, 65} {
		for _, at := range []int{0, 1, 64, 100} {
			shapes = append(shapes, clip(RowRange{Start: at, End: at + n}))
		}
	}
	for i := 0; i < 6; i++ {
		var spans []RowRange
		pos := r.Intn(5)
		for pos < bn {
			end := pos + 1 + r.Intn(60)
			if end > bn {
				end = bn
			}
			spans = append(spans, RowRange{Start: pos, End: end})
			pos = end + 1 + r.Intn(200)
		}
		shapes = append(shapes, spans)
	}
	return shapes
}

// oraclePreds returns the predicate shapes the kernels must agree with the
// oracle on for a block holding full[:bn] with bounds [min, max]: every
// comparison operator at boundary and member constants, intervals (narrow,
// covering, empty) and their negations, and IN-sets — built literally (map
// probe) and through NewIntSetPred (bitset probe), with and without SetVals,
// narrow and wider than maxSetBits, plain and negated.
func oraclePreds(full []int64, bn int, min, max int64, r *rand.Rand) []IntPred {
	mid := min/2 + max/2
	consts := []int64{min, max, mid, math.MinInt64, math.MaxInt64, full[r.Intn(bn)], full[r.Intn(bn)]}
	if min > math.MinInt64 {
		consts = append(consts, min-1)
	}
	if max < math.MaxInt64 {
		consts = append(consts, max+1)
	}
	var preds []IntPred
	for _, cst := range consts {
		for _, op := range []string{"eq", "ne", "lt", "le", "gt", "ge"} {
			preds = append(preds, predForOp(op, cst))
		}
	}
	a, b := full[r.Intn(bn)], full[r.Intn(bn)]
	if a > b {
		a, b = b, a
	}
	for _, iv := range [][2]int64{{min, max}, {a, b}, {mid, mid}, {10, -10}, {math.MinInt64, math.MaxInt64}} {
		preds = append(preds,
			IntPred{Kind: IntPredRange, Lo: iv[0], Hi: iv[1]},
			IntPred{Kind: IntPredRange, Lo: iv[0], Hi: iv[1], Not: true})
	}
	sets := []map[int64]struct{}{
		{full[0]: {}, full[bn/2]: {}, min: {}},
		{full[bn-1]: {}, full[bn-1] + 1: {}, full[bn-1] + 70: {}},
		{min: {}, max: {}}, // as wide as the block: the map path once the span passes maxSetBits
		{},
	}
	for _, set := range sets {
		var vals []int64
		for v := range set {
			vals = append(vals, v)
		}
		for _, not := range []bool{false, true} {
			for _, withVals := range []bool{false, true} {
				sv := vals
				if !withVals {
					sv = nil
				} else if sv == nil {
					sv = []int64{}
				}
				lit := IntPred{Kind: IntPredSet, Set: set, SetVals: sv, Not: not}
				built := NewIntSetPred(set, sv)
				built.Not = not
				preds = append(preds, lit, built)
			}
		}
	}
	return preds
}

// checkKernels compares both kernel entry points — the mask primitive and the
// ranges adapter — with decode-then-Match on block blk of c, for every
// predicate and candidate shape. It returns how many evaluations a kernel
// (rather than the ok=false fallback) answered.
func checkKernels(t *testing.T, name string, c *ColumnStore, blk int, preds []IntPred, shapes [][]RowRange) (kernelEvals int) {
	t.Helper()
	full := make([]int64, BlockSize)
	c.ReadIntBlock(blk, full)
	for _, spans := range shapes {
		var seed BlockMask
		for _, sp := range spans {
			seed.SetRange(sp.Start, sp.End)
		}
		for pi := range preds {
			p := &preds[pi]
			want := refRanges(full, spans, p.Match)

			got, ok := c.EvalPredRanges(blk, p, spans, nil)
			m := seed
			if maskOK := c.EvalPredMask(blk, p, &m); maskOK != ok {
				t.Fatalf("%s: pred %+v: EvalPredMask ok=%v, EvalPredRanges ok=%v", name, *p, maskOK, ok)
			}
			if !ok {
				if m != seed {
					t.Fatalf("%s: pred %+v: unsupported block changed the mask", name, *p)
				}
				continue // decode-then-filter fallback; nothing to verify
			}
			kernelEvals++
			if !rangesEqual(got, want) {
				t.Fatalf("%s: pred %+v spans %v: adapter = %v, want %v", name, *p, spans, got, want)
			}
			if fromMask := m.AppendRanges(nil, 0); !rangesEqual(fromMask, want) {
				t.Fatalf("%s: pred %+v spans %v: mask = %v, want %v", name, *p, spans, fromMask, want)
			}
			var rows []int
			for _, sp := range want {
				for r := sp.Start; r < sp.End; r++ {
					rows = append(rows, r)
				}
			}
			if sel := m.AppendRows(nil); len(sel) != len(rows) {
				t.Fatalf("%s: pred %+v spans %v: %d selected rows, want %d", name, *p, spans, len(sel), len(rows))
			} else {
				for i := range sel {
					if sel[i] != rows[i] {
						t.Fatalf("%s: pred %+v spans %v: selection vector = %v, want %v", name, *p, spans, sel, rows)
					}
				}
			}
		}
	}
	return kernelEvals
}

// forBlockColumn hand-packs vals as one FOR block whatever encodeInts would
// have chosen, so every width up to 64 reaches the FOR kernel.
func forBlockColumn(vals []int64) *ColumnStore {
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	width := forWidth(min, max)
	words := make([]uint64, (len(vals)*width+63)/64+1)
	words[0] = uint64(min)
	if width > 0 {
		packBits(words[1:], vals, min, width)
	}
	c := newColumnStore(Int64, nil)
	c.blocks = append(c.blocks, &Block{N: len(vals), Enc: EncFOR, Words: words, MinI: min, MaxI: max})
	return c
}

// TestEvalPredRangesEquivalence proves the encoded-domain kernels equivalent
// to decode-then-filter: on every encoding encodeInts picks; on FOR blocks of
// every width 1–64 (fields straddling payload words, bases at both int64
// extremes, and max-min overflowing int64 at width 64); and on short blocks,
// for all predicate shapes of oraclePreds and candidate shapes of spanShapes.
func TestEvalPredRangesEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for name, vals := range kernelTestPatterns(BlockSize) {
		c := makeIntColumn(t, vals)
		full := make([]int64, BlockSize)
		bn := c.ReadIntBlock(0, full)
		min, max, _ := c.IntBounds(0)
		evals := checkKernels(t, name, c, 0, oraclePreds(full, bn, min, max, r), spanShapes(bn, r))
		// Kernel coverage: RLE and FOR sealed blocks must have kernels.
		if enc := c.blocks[0].Enc; (enc == EncRLE || enc == EncFOR) && evals == 0 {
			t.Fatalf("%s: no kernel evaluated a %v block", name, enc)
		}
	}

	for width := 1; width <= 64; width++ {
		for _, bn := range []int{BlockSize, 1, 63, 64, 65, 999} {
			if width > 1 && bn != BlockSize && width%7 != 0 {
				continue // short blocks at a sample of widths
			}
			// Bases at both int64 extremes, around zero, and arbitrary; at
			// width 64 only MinInt64 leaves room for the widest delta.
			top := ^uint64(0) >> uint(64-width)
			bases := []int64{math.MinInt64}
			if width < 64 {
				high := math.MaxInt64 - int64(top)
				bases = append(bases, high, -int64(top/2), high/3)
			}
			for _, base := range bases {
				vals := make([]int64, bn)
				for i := range vals {
					vals[i] = int64(uint64(base) + r.Uint64()&top)
				}
				if bn > 1 {
					// Pin both ends so the block has exactly this width.
					vals[r.Intn(bn)] = int64(uint64(base) + top)
					vals[0] = base
					if bn > 2 {
						vals[1+r.Intn(bn-1)] = int64(uint64(base) + top)
					}
				}
				c := forBlockColumn(vals)
				b := c.blocks[0]
				if bn > 1 && forWidth(b.MinI, b.MaxI) != width {
					t.Fatalf("width %d base %d: block width = %d", width, base, forWidth(b.MinI, b.MaxI))
				}
				name := "for" + string(rune('0'+width/10)) + string(rune('0'+width%10))
				checkKernels(t, name, c, 0, oraclePreds(vals, bn, b.MinI, b.MaxI, r), spanShapes(bn, r))
			}
		}
	}

	// A sealed short block of each encoding (what vacuum leaves behind).
	for name, vals := range kernelTestPatterns(437) {
		c := makeIntColumn(t, vals)
		c.seal()
		min, max, _ := c.IntBounds(0)
		checkKernels(t, name+"-short", c, 0, oraclePreds(vals, len(vals), min, max, r), spanShapes(len(vals), r))
	}
}

// TestEvalPredRangesOpSemantics cross-checks predForOp's interval translation
// against the scalar comparison, so the kernel oracle itself is validated.
func TestEvalPredRangesOpSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ops := []string{"eq", "ne", "lt", "le", "gt", "ge"}
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -5, 0, 5, math.MaxInt64 - 1, math.MaxInt64}
	for i := 0; i < 200; i++ {
		vals = append(vals, int64(r.Uint64()))
	}
	for _, op := range ops {
		for _, c := range vals {
			p := predForOp(op, c)
			for _, v := range vals {
				if got, want := p.Match(v), opMatches(op, v, c); got != want {
					t.Fatalf("predForOp(%s, %d).Match(%d) = %v, want %v", op, c, v, got, want)
				}
			}
		}
	}
}

// TestEvalPredRangesUnsupported pins the fallback contract: float columns and
// the open tail never claim kernel support.
func TestEvalPredRangesUnsupported(t *testing.T) {
	fc := newColumnStore(Float64, nil)
	for i := 0; i < BlockSize; i++ {
		fc.appendFloat(float64(i))
	}
	p := predForOp("ge", 0)
	if _, ok := fc.EvalPredRanges(0, &p, []RowRange{{Start: 0, End: BlockSize}}, nil); ok {
		t.Fatal("float column claimed kernel support")
	}

	ic := newColumnStore(Int64, nil)
	for i := 0; i < 10; i++ {
		ic.appendInt(int64(i))
	}
	if _, ok := ic.EvalPredRanges(0, &p, []RowRange{{Start: 0, End: 10}}, nil); ok {
		t.Fatal("open tail claimed kernel support")
	}
}

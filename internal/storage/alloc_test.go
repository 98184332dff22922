package storage

import (
	"math/rand"
	"testing"
)

// TestHotPathAllocs pins the scan kernels and partial decoders at zero
// allocations per call: the engine runs them once per candidate block, so an
// allocation here is an allocation per block of every scan.
func TestHotPathAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	column := func(gen func(row int) int64) *ColumnStore {
		vals := make([]int64, 2*BlockSize+100) // two sealed blocks and a tail
		for i := range vals {
			vals[i] = gen(i)
		}
		return makeIntColumn(t, vals)
	}
	forCol := column(func(int) int64 { return int64(r.Intn(100)) })
	dictCol := column(func(int) int64 { return int64(r.Intn(20)) })
	rleCol := column(func(row int) int64 { return int64(row/40%7) * 1e15 })
	rawCol := column(func(int) int64 { return int64(r.Uint64()) })
	for _, c := range []struct {
		col *ColumnStore
		enc Encoding
	}{{forCol, EncFOR}, {dictCol, EncFOR}, {rleCol, EncRLE}, {rawCol, EncRaw}} {
		if got := c.col.blocks[0].Enc; got != c.enc {
			t.Fatalf("block encoding = %v, want %v", got, c.enc)
		}
	}
	floatCol := newColumnStore(Float64, nil)
	for i := 0; i < BlockSize+100; i++ {
		floatCol.appendFloat(r.Float64())
	}

	rangePred := IntPred{Kind: IntPredRange, Lo: 50, Hi: 1 << 40}
	dictPred := IntPred{Kind: IntPredRange, Lo: 7, Hi: 7}
	rlePred := IntPred{Kind: IntPredRange, Lo: 0, Hi: 3 * 1e15}
	bitsetPred := NewIntSetPred(map[int64]struct{}{3: {}, 41: {}, 77: {}}, []int64{3, 41, 77})
	mapPred := NewIntSetPred(map[int64]struct{}{3: {}, 41: {}, 1 << 20: {}}, []int64{3, 41, 1 << 20})
	if bitsetPred.bitset == nil || mapPred.bitset != nil {
		t.Fatal("set predicates do not cover both set kernels")
	}

	var dense, sparse, m BlockMask
	dense.SetRange(0, BlockSize)
	for row := 0; row < BlockSize; row += 20 {
		sparse.SetRange(row, row+1)
	}
	evalMask := func(c *ColumnStore, p *IntPred, seed *BlockMask) func() {
		m = *seed
		if !c.EvalPredMask(1, p, &m) {
			t.Fatalf("no kernel for %+v", *p)
		}
		return func() {
			m = *seed
			c.EvalPredMask(1, p, &m)
		}
	}
	ints, floats := make([]int64, BlockSize), make([]float64, BlockSize)
	someRows := []uint16{3, 4, 90, 512, 999}
	var sink bool

	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"IntPred.Match/range", func() { sink = rangePred.Match(77) }},
		{"IntPred.Match/set", func() { sink = mapPred.Match(41) }},
		{"EvalPredMask/FOR-dense", evalMask(forCol, &rangePred, &dense)},
		{"EvalPredMask/FOR-sparse", evalMask(forCol, &rangePred, &sparse)},
		{"EvalPredMask/dict-dense", evalMask(dictCol, &dictPred, &dense)},
		{"EvalPredMask/dict-sparse", evalMask(dictCol, &dictPred, &sparse)},
		{"EvalPredMask/RLE", evalMask(rleCol, &rlePred, &dense)},
		{"EvalPredMask/set-bitset", evalMask(forCol, &bitsetPred, &dense)},
		{"EvalPredMask/set-map", evalMask(forCol, &mapPred, &sparse)},
		{"ReadIntRange/FOR", func() { forCol.ReadIntRange(1, 10, 900, ints) }},
		{"ReadIntRange/RLE", func() { rleCol.ReadIntRange(1, 10, 900, ints) }},
		{"ReadIntRange/raw", func() { rawCol.ReadIntRange(1, 10, 900, ints) }},
		{"ReadIntRange/tail", func() { forCol.ReadIntRange(2, 0, 100, ints) }},
		{"ReadFloatRange", func() { floatCol.ReadFloatRange(0, 10, 900, floats) }},
		{"ReadIntRows/FOR", func() { forCol.ReadIntRows(1, someRows, ints) }},
		{"ReadIntRows/RLE", func() { rleCol.ReadIntRows(1, someRows, ints) }},
		{"ReadFloatRows", func() { floatCol.ReadFloatRows(0, someRows, floats) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(20, tc.fn); got != 0 {
				t.Errorf("%v allocs per run, want 0", got)
			}
		})
	}
	_ = sink
}

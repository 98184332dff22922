package storage

import (
	"math/rand"
	"testing"
)

// The kernel benchmarks run over benchBlocks distinct random blocks: with one
// block repeated the branch predictor memorises its outcomes and a per-row
// branchy loop looks twice as fast as it is on a table.
const benchBlocks = 2048

// benchColumn builds a column of benchBlocks sealed blocks from gen.
func benchColumn(gen func(r *rand.Rand, row int) int64) *ColumnStore {
	r := rand.New(rand.NewSource(1))
	c := newColumnStore(Int64, nil)
	for i := 0; i < benchBlocks*BlockSize; i++ {
		c.appendInt(gen(r, i))
	}
	return c
}

// benchMasks returns one candidate mask per block: every row when dense, a
// random twentieth of them (what a 5 % leading conjunct leaves) when not.
func benchMasks(dense bool) (masks []BlockMask, rows int) {
	r := rand.New(rand.NewSource(2))
	masks = make([]BlockMask, benchBlocks)
	for i := range masks {
		if dense {
			masks[i].SetRange(0, BlockSize)
			rows += BlockSize
			continue
		}
		for row := 0; row < BlockSize; row++ {
			if r.Intn(20) == 0 {
				masks[i].SetRange(row, row+1)
				rows++
			}
		}
	}
	return masks, rows
}

var benchSink uint64

// benchEvalPred times EvalPredMask over every block of c and reports
// nanoseconds per candidate row.
func benchEvalPred(b *testing.B, c *ColumnStore, wantEnc Encoding, p IntPred, dense bool) {
	for _, blk := range c.blocks {
		if blk.Enc != wantEnc {
			b.Fatalf("block encoding = %v, want %v", blk.Enc, wantEnc)
		}
	}
	masks, rows := benchMasks(dense)
	work := make([]BlockMask, len(masks))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		copy(work, masks)
		for i := range work {
			if !c.EvalPredMask(i, &p, &work[i]) {
				b.Fatal("no kernel")
			}
			benchSink += work[i][0]
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// forColumn is a width-7 FOR column (quantities 0..99); "qty >= 50" passes an
// unpredictable half of it.
func forColumn() *ColumnStore {
	return benchColumn(func(r *rand.Rand, _ int) int64 { return int64(r.Intn(100)) })
}

// dictColumn is a width-5 FOR column of 20 dictionary codes; equality passes
// a twentieth of it.
func dictColumn() *ColumnStore {
	return benchColumn(func(r *rand.Rand, _ int) int64 { return int64(r.Intn(20)) })
}

// rleColumn has runs of 20 to 60 equal values.
func rleColumn() *ColumnStore {
	var v int64
	left := 0
	return benchColumn(func(r *rand.Rand, _ int) int64 {
		if left == 0 {
			v, left = int64(r.Intn(100))*1e15, 20+r.Intn(41)
		}
		left--
		return v
	})
}

var (
	forPred  = IntPred{Kind: IntPredRange, Lo: 50, Hi: 1 << 40}
	dictPred = IntPred{Kind: IntPredRange, Lo: 7, Hi: 7}
	rlePred  = IntPred{Kind: IntPredRange, Lo: 0, Hi: 50 * 1e15}
	setPred  = NewIntSetPred(map[int64]struct{}{3: {}, 41: {}, 77: {}}, []int64{3, 41, 77})
)

func BenchmarkEvalPredFORDense(b *testing.B)  { benchEvalPred(b, forColumn(), EncFOR, forPred, true) }
func BenchmarkEvalPredFORSparse(b *testing.B) { benchEvalPred(b, forColumn(), EncFOR, forPred, false) }
func BenchmarkEvalPredDictDense(b *testing.B) { benchEvalPred(b, dictColumn(), EncFOR, dictPred, true) }
func BenchmarkEvalPredDictSparse(b *testing.B) {
	benchEvalPred(b, dictColumn(), EncFOR, dictPred, false)
}
func BenchmarkEvalPredRLEDense(b *testing.B)  { benchEvalPred(b, rleColumn(), EncRLE, rlePred, true) }
func BenchmarkEvalPredRLESparse(b *testing.B) { benchEvalPred(b, rleColumn(), EncRLE, rlePred, false) }
func BenchmarkEvalPredSetDense(b *testing.B)  { benchEvalPred(b, forColumn(), EncFOR, setPred, true) }
func BenchmarkEvalPredSetSparse(b *testing.B) { benchEvalPred(b, forColumn(), EncFOR, setPred, false) }

// BenchmarkEvalPredRangesFOR times the spans → mask → ranges adapter on full
// blocks: what benchmark/trace.go reports as storage.kernel_for_ns_per_row.
func BenchmarkEvalPredRangesFOR(b *testing.B) {
	c := forColumn()
	full := []RowRange{{Start: 0, End: BlockSize}}
	var dst []RowRange
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range c.blocks {
			dst, _ = c.EvalPredRanges(i, &forPred, full, dst[:0])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(benchBlocks*BlockSize), "ns/row")
}

package expr

import (
	"math"
	"testing"

	"github.com/predcache/predcache/internal/storage"
)

// TestScalarEvalAllocs pins the allocations of scalar and composite
// predicate evaluation over one block, and checks each against plain
// row-by-row evaluation. An arithmetic node with a constant operand (TPC-H
// Q1's 1 - l_discount) evaluates in place; two non-constant operands, OR,
// NOT, CASE and year() take their buffers from the context's scratch, so
// once warm nothing allocates, nested nodes included.
func TestScalarEvalAllocs(t *testing.T) {
	tbl, b := testTable(t, 2000, 12)
	ctx := blockCtxFor(tbl, 0)
	sel := firstBlockSel(tbl)
	out := make([]float64, len(sel))
	qty, price, day := b.Cols[0].Ints, b.Cols[1].Floats, b.Cols[3].Ints
	year := func(r int) float64 {
		y, _, _ := storage.YMDFromDate(day[r])
		return float64(y)
	}
	cheap := Or(Cmp("qty", Lt, Int(10)), Not(Or(Cmp("price", Gt, Float(50)), Cmp("qty", Gt, Int(40)))))
	isCheap := func(r int) bool { return qty[r] < 10 || !(price[r] > 50 || qty[r] > 40) }
	for _, tc := range []struct {
		name string
		s    Scalar
		ref  func(row int) float64
	}{
		{"const-sub-col", Arith(Const(Float(1)), Sub, Col("price")), func(r int) float64 { return 1 - price[r] }},
		{"col-add-const", Arith(Col("price"), Add, Const(Float(1))), func(r int) float64 { return price[r] + 1 }},
		{"const-div-col", Arith(Const(Float(3)), Div, Col("price")), func(r int) float64 { return 3 / price[r] }},
		{"col-mul-col", Arith(Col("price"), Mul, Col("qty")), func(r int) float64 { return price[r] * float64(qty[r]) }},
		{"year", Year(Col("day")), year},
		// The condition nests OR and NOT; the then branch multiplies two
		// columns, so CASE, OR, NOT and arithmetic all hold buffers at once.
		{"case", Case(cheap, Arith(Col("price"), Mul, Col("qty")), Col("price")), func(r int) float64 {
			if isCheap(r) {
				return price[r] * float64(qty[r])
			}
			return price[r]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs, err := BindScalar(tc.s, tbl)
			if err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(20, func() { bs.EvalF(ctx, sel, out) }); got != 0 {
				t.Errorf("%v allocs per run, want 0", got)
			}
			for i, r := range sel {
				if want := tc.ref(r); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("row %d: got %v want %v", r, out[i], want)
				}
			}
		})
	}
	buf := make([]int, len(sel))
	for _, tc := range []struct {
		name string
		p    Pred
		ref  func(row int) bool
	}{
		{"or", Or(Cmp("qty", Lt, Int(10)), Cmp("price", Gt, Float(90))), func(r int) bool { return qty[r] < 10 || price[r] > 90 }},
		{"not", Not(Cmp("qty", Lt, Int(10))), func(r int) bool { return qty[r] >= 10 }},
		{"or-not-nested", cheap, isCheap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bound, err := Bind(tc.p, tbl)
			if err != nil {
				t.Fatal(err)
			}
			var got []int
			if n := testing.AllocsPerRun(20, func() { got = bound.Eval(ctx, append(buf[:0], sel...)) }); n != 0 {
				t.Errorf("%v allocs per run, want 0", n)
			}
			k := 0
			for _, r := range sel {
				if !tc.ref(r) {
					continue
				}
				if k >= len(got) || got[k] != r {
					t.Fatalf("row %d passes but is not next in %v", r, got)
				}
				k++
			}
			if k != len(got) {
				t.Fatalf("%d rows pass, Eval returned %d", k, len(got))
			}
		})
	}
}

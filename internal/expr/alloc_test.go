package expr

import (
	"math"
	"testing"
)

// TestScalarEvalAllocs pins the allocations of scalar evaluation over one
// block and checks that the in-place constant path computes the same bits
// as plain row-by-row arithmetic. An arithmetic node with a constant operand
// (TPC-H Q1's 1 - l_discount) evaluates in place; only two non-constant
// operands need a second vector.
func TestScalarEvalAllocs(t *testing.T) {
	tbl, b := testTable(t, 2000, 12)
	ctx := blockCtxFor(tbl, 0)
	sel := firstBlockSel(tbl)
	out := make([]float64, len(sel))
	price := b.Cols[1].Floats
	for _, tc := range []struct {
		name string
		s    Scalar
		want float64 // allocations per evaluation
		ref  func(row int) float64
	}{
		{"const-sub-col", Arith(Const(Float(1)), Sub, Col("price")), 0, func(r int) float64 { return 1 - price[r] }},
		{"col-add-const", Arith(Col("price"), Add, Const(Float(1))), 0, func(r int) float64 { return price[r] + 1 }},
		{"const-div-col", Arith(Const(Float(3)), Div, Col("price")), 0, func(r int) float64 { return 3 / price[r] }},
		{"col-mul-col", Arith(Col("price"), Mul, Col("qty")), 1, func(r int) float64 { return price[r] * float64(b.Cols[0].Ints[r]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs, err := BindScalar(tc.s, tbl)
			if err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(20, func() { bs.EvalF(ctx, sel, out) }); got != tc.want {
				t.Errorf("%v allocs per run, want %v", got, tc.want)
			}
			for i, r := range sel {
				if want := tc.ref(r); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("row %d: got %v want %v", r, out[i], want)
				}
			}
		})
	}
}

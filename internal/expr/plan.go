package expr

import (
	"math"

	"github.com/predcache/predcache/internal/storage"
)

// Kernel planning: split a bound predicate tree into leaves that can run as
// encoded-domain kernels (storage.ColumnStore.EvalPredMask, operating on a
// block's compressed form) and a residual that still needs decode-then-Eval.
// Only top-level AND conjuncts that are plain integer-domain leaf predicates
// (comparison, BETWEEN, IN — including dictionary-code equality on strings)
// become kernels; float comparisons, column-vs-column, LIKE, OR/NOT trees and
// string ordering stay in the residual.

// KernelLeaf is one conjunct that can be evaluated on encoded blocks.
type KernelLeaf struct {
	Col  int
	Pred storage.IntPred
	// Fallback is the original bound leaf, evaluated over a selection vector
	// for blocks whose encoding has no kernel (EncRaw, open tail).
	Fallback Bound
}

// ScanPlan is the kernel/residual split of one bound predicate.
type ScanPlan struct {
	Kernels  []KernelLeaf
	Residual Bound // nil when every conjunct became a kernel
	// ResidualCols lists the column indexes the residual reads, so the scan
	// loop can load exactly those vectors before evaluating it.
	ResidualCols []int
}

// HasKernels reports whether any conjunct compiled to an encoded kernel.
func (p *ScanPlan) HasKernels() bool { return len(p.Kernels) > 0 }

// PlanKernels splits b into encoded-domain kernels plus a residual bound.
// The split preserves semantics: kernels ∧ residual ≡ b for every block.
func PlanKernels(b Bound) *ScanPlan {
	p := &ScanPlan{}
	var residual []Bound
	collectKernels(b, p, &residual)
	switch len(residual) {
	case 0:
	case 1:
		p.Residual = residual[0]
	default:
		p.Residual = &boundAnd{residual}
	}
	if p.Residual != nil {
		seen := make(map[int]bool)
		boundColumns(p.Residual, func(col int) {
			if !seen[col] {
				seen[col] = true
				p.ResidualCols = append(p.ResidualCols, col)
			}
		})
	}
	return p
}

// NoKernelPlan returns a plan that forces the decode-then-Eval path for the
// whole predicate (ablation and equivalence testing).
func NoKernelPlan(b Bound) *ScanPlan {
	p := &ScanPlan{Residual: b}
	seen := make(map[int]bool)
	boundColumns(b, func(col int) {
		if !seen[col] {
			seen[col] = true
			p.ResidualCols = append(p.ResidualCols, col)
		}
	})
	return p
}

func collectKernels(b Bound, p *ScanPlan, residual *[]Bound) {
	switch t := b.(type) {
	case boundTrue:
		// Matches everything: contributes nothing to either side.
	case *boundAnd:
		for _, c := range t.children {
			collectKernels(c, p, residual)
		}
	case *boundCmpInt:
		p.Kernels = append(p.Kernels, KernelLeaf{Col: t.col, Pred: intPredForCmp(t.op, t.v), Fallback: t})
	case *boundBetweenInt:
		p.Kernels = append(p.Kernels, KernelLeaf{
			Col:      t.col,
			Pred:     storage.IntPred{Kind: storage.IntPredRange, Lo: t.lo, Hi: t.hi},
			Fallback: t,
		})
	case *boundInInt:
		p.Kernels = append(p.Kernels, KernelLeaf{
			Col:      t.col,
			Pred:     storage.NewIntSetPred(t.set, t.vals),
			Fallback: t,
		})
	default:
		// boundFalse stays here too: the residual path is what turns it into
		// an empty selection.
		*residual = append(*residual, b)
	}
}

// intPredForCmp translates `col op v` into interval form. Lt/Gt at the int64
// extremes produce the canonical empty interval (Lo > Hi) rather than
// wrapping.
func intPredForCmp(op CmpOp, v int64) storage.IntPred {
	switch op {
	case Eq:
		return storage.IntPred{Kind: storage.IntPredRange, Lo: v, Hi: v}
	case Ne:
		return storage.IntPred{Kind: storage.IntPredRange, Lo: v, Hi: v, Not: true}
	case Lt:
		if v == math.MinInt64 {
			return storage.IntPred{Kind: storage.IntPredRange, Lo: 0, Hi: -1}
		}
		return storage.IntPred{Kind: storage.IntPredRange, Lo: math.MinInt64, Hi: v - 1}
	case Le:
		return storage.IntPred{Kind: storage.IntPredRange, Lo: math.MinInt64, Hi: v}
	case Gt:
		if v == math.MaxInt64 {
			return storage.IntPred{Kind: storage.IntPredRange, Lo: 0, Hi: -1}
		}
		return storage.IntPred{Kind: storage.IntPredRange, Lo: v + 1, Hi: math.MaxInt64}
	default: // Ge
		return storage.IntPred{Kind: storage.IntPredRange, Lo: v, Hi: math.MaxInt64}
	}
}

// boundColumns visits every column index a bound tree reads.
func boundColumns(b Bound, visit func(col int)) {
	switch t := b.(type) {
	case boundTrue, boundFalse:
	case *boundCmpInt:
		visit(t.col)
	case *boundCmpFloat:
		visit(t.col)
	case *boundCmpIntAsFloat:
		visit(t.col)
	case *boundCmpColsInt:
		visit(t.colA)
		visit(t.colB)
	case *boundCmpColsFloat:
		visit(t.colA)
		visit(t.colB)
	case *boundBetweenInt:
		visit(t.col)
	case *boundBetweenFloat:
		visit(t.col)
	case *boundInInt:
		visit(t.col)
	case *boundInFloat:
		visit(t.col)
	case *boundStrOrd:
		visit(t.col)
	case *boundLike:
		visit(t.col)
	case *boundAnd:
		for _, c := range t.children {
			boundColumns(c, visit)
		}
	case *boundOr:
		for _, c := range t.children {
			boundColumns(c, visit)
		}
	case *boundNot:
		boundColumns(t.child, visit)
	}
}

package expr

import (
	"fmt"
	"math"

	"github.com/predcache/predcache/internal/storage"
)

// BlockCtx carries the decompressed column vectors of one block during
// vectorized evaluation, plus the evaluation scratch of the goroutine that
// owns it. A BlockCtx is owned by a single goroutine: workers reading one
// relation each evaluate through a context of their own.
type BlockCtx struct {
	N       int
	ints    [][]int64
	floats  [][]float64
	dicts   []*storage.Dict
	scratch *evalScratch // allocated by the first node that needs it
}

// evalScratch holds the buffers that OR, NOT, CASE, two-column arithmetic
// and year() take on entry and give back on exit, in stack order, so nested
// nodes hold distinct buffers. Bound trees are shared by every worker, so
// the buffers live with the context, not the node.
type evalScratch struct {
	sels  bufStack[int]
	marks bufStack[bool]
	fvecs bufStack[float64]
	ivecs bufStack[int64]
}

// bufStack hands out reusable buffers in stack order.
type bufStack[T any] struct {
	bufs  [][]T
	depth int
}

// take returns the buffer at the top of the stack, sized n; its values are
// the caller's to overwrite.
func (s *bufStack[T]) take(n int) []T {
	if s.depth == len(s.bufs) {
		s.bufs = append(s.bufs, nil)
	}
	b := s.bufs[s.depth]
	if cap(b) < n {
		b = make([]T, n)
		s.bufs[s.depth] = b
	}
	s.depth++
	return b[:n]
}

// put gives back the buffer taken last.
func (s *bufStack[T]) put() { s.depth-- }

// evalScratch returns the context's evaluation scratch.
func (c *BlockCtx) evalScratch() *evalScratch {
	if c.scratch == nil {
		c.scratch = &evalScratch{}
	}
	return c.scratch
}

// NewBlockCtx creates a context for a table with numCols columns; dicts is
// indexed by column (nil for non-string columns).
func NewBlockCtx(numCols int, dicts []*storage.Dict) *BlockCtx {
	return &BlockCtx{
		ints:   make([][]int64, numCols),
		floats: make([][]float64, numCols),
		dicts:  dicts,
	}
}

// Reset prepares a (possibly recycled) context for a new scan over a table
// with numCols columns: vector pointers are cleared so stale slices from the
// previous scan can never be read.
func (c *BlockCtx) Reset(numCols int, dicts []*storage.Dict) {
	if cap(c.ints) >= numCols && cap(c.floats) >= numCols {
		c.ints = c.ints[:numCols]
		c.floats = c.floats[:numCols]
		for i := 0; i < numCols; i++ {
			c.ints[i] = nil
			c.floats[i] = nil
		}
	} else {
		c.ints = make([][]int64, numCols)
		c.floats = make([][]float64, numCols)
	}
	c.dicts = dicts
	c.N = 0
	if s := c.scratch; s != nil { // buffers an evaluation that panicked still holds
		s.sels.depth, s.marks.depth, s.fvecs.depth, s.ivecs.depth = 0, 0, 0, 0
	}
}

// SetInt installs the decompressed integer vector of a column.
func (c *BlockCtx) SetInt(col int, v []int64) { c.ints[col] = v }

// SetFloat installs the decompressed float vector of a column.
func (c *BlockCtx) SetFloat(col int, v []float64) { c.floats[col] = v }

// Ints returns the integer vector of a column. The vector is a per-block
// scratch buffer overwritten by the next block load; read it within the
// batch only, and copy elements out — never retain the slice itself.
//
// pclint:recycled
func (c *BlockCtx) Ints(col int) []int64 { return c.ints[col] }

// Floats returns the float vector of a column. Batch-scoped like Ints.
//
// pclint:recycled
func (c *BlockCtx) Floats(col int) []float64 { return c.floats[col] }

// Dict returns the dictionary of a string column.
func (c *BlockCtx) Dict(col int) *storage.Dict { return c.dicts[col] }

// Source is anything predicates and scalars can bind against: a base table
// or an intermediate relation. Implementations expose column resolution,
// column types, and per-column string dictionaries.
type Source interface {
	Name() string
	ColumnIndex(name string) int
	ColumnType(i int) storage.ColumnType
	Dict(i int) *storage.Dict
}

// BoundsProvider exposes the zone-map bounds of the current block.
type BoundsProvider interface {
	IntBounds(col int) (min, max int64, ok bool)
	FloatBounds(col int) (min, max float64, ok bool)
}

// Bound is a predicate bound to a concrete table: it can prune whole blocks
// using zone maps and filter selection vectors within a block.
type Bound interface {
	// Eval filters sel in place, returning the qualifying prefix. Rows are
	// block-relative offsets.
	Eval(ctx *BlockCtx, sel []int) []int
	// Prune reports whether the zone maps prove that no row of the block can
	// satisfy the predicate (the block can be skipped).
	Prune(bp BoundsProvider) bool
}

// Bind resolves a predicate against a table, producing an executable form.
// String literals are translated to dictionary codes, LIKE patterns and
// string-order comparisons are memoized over the dictionary.
func Bind(p Pred, src Source) (Bound, error) {
	switch t := p.(type) {
	case TruePred, *TruePred:
		return boundTrue{}, nil
	case *AndPred:
		children := make([]Bound, len(t.Children))
		for i, c := range t.Children {
			b, err := Bind(c, src)
			if err != nil {
				return nil, err
			}
			children[i] = b
		}
		return &boundAnd{children}, nil
	case *OrPred:
		children := make([]Bound, len(t.Children))
		for i, c := range t.Children {
			b, err := Bind(c, src)
			if err != nil {
				return nil, err
			}
			children[i] = b
		}
		return &boundOr{children}, nil
	case *NotPred:
		b, err := Bind(t.Child, src)
		if err != nil {
			return nil, err
		}
		return &boundNot{b}, nil
	case *CmpPred:
		return bindCmp(t, src)
	case *CmpColsPred:
		return bindCmpCols(t, src)
	case *BetweenPred:
		return bindBetween(t, src)
	case *InPred:
		return bindIn(t, src)
	case *LikePred:
		return bindLike(t, src)
	}
	return nil, fmt.Errorf("expr: cannot bind %T", p)
}

func colOf(src Source, name string) (int, storage.ColumnType, error) {
	idx := src.ColumnIndex(name)
	if idx < 0 {
		return 0, 0, fmt.Errorf("expr: %s has no column %q", src.Name(), name)
	}
	return idx, src.ColumnType(idx), nil
}

func bindCmp(p *CmpPred, src Source) (Bound, error) {
	col, typ, err := colOf(src, p.Col)
	if err != nil {
		return nil, err
	}
	switch typ {
	case storage.Float64:
		return &boundCmpFloat{col, p.Op, p.Val.AsFloat()}, nil
	case storage.String:
		if p.Val.Kind != KindString {
			return nil, fmt.Errorf("expr: comparing string column %s to %v", p.Col, p.Val)
		}
		dict := src.Dict(col)
		if p.Op == Eq || p.Op == Ne {
			code, found := dict.Lookup(p.Val.S)
			if !found {
				if p.Op == Eq {
					return boundFalse{}, nil
				}
				return boundTrue{}, nil
			}
			return &boundCmpInt{col, p.Op, code}, nil
		}
		return newBoundStrOrd(col, p.Op, p.Val.S, dict), nil
	default: // integer representations
		if p.Val.Kind == KindFloat {
			if p.Val.F != math.Trunc(p.Val.F) {
				// Fractional literal against an integer column: compare in
				// float domain so semantics match SQL.
				return &boundCmpIntAsFloat{col, p.Op, p.Val.F}, nil
			}
			return &boundCmpInt{col, p.Op, int64(p.Val.F)}, nil
		}
		if p.Val.Kind == KindString {
			return nil, fmt.Errorf("expr: comparing %s column %s to string", typ, p.Col)
		}
		return &boundCmpInt{col, p.Op, p.Val.I}, nil
	}
}

func bindCmpCols(p *CmpColsPred, src Source) (Bound, error) {
	ca, ta, err := colOf(src, p.ColA)
	if err != nil {
		return nil, err
	}
	cb, tb, err := colOf(src, p.ColB)
	if err != nil {
		return nil, err
	}
	if ta == storage.String || tb == storage.String {
		return nil, fmt.Errorf("expr: column-column comparison on strings unsupported (%s, %s)", p.ColA, p.ColB)
	}
	if ta == storage.Float64 || tb == storage.Float64 {
		if ta != storage.Float64 || tb != storage.Float64 {
			return nil, fmt.Errorf("expr: mixed-type column comparison (%s %s)", p.ColA, p.ColB)
		}
		return &boundCmpColsFloat{ca, p.Op, cb}, nil
	}
	return &boundCmpColsInt{ca, p.Op, cb}, nil
}

func bindBetween(p *BetweenPred, src Source) (Bound, error) {
	col, typ, err := colOf(src, p.Col)
	if err != nil {
		return nil, err
	}
	switch typ {
	case storage.Float64:
		return &boundBetweenFloat{col, p.Lo.AsFloat(), p.Hi.AsFloat()}, nil
	case storage.String:
		if p.Lo.Kind != KindString || p.Hi.Kind != KindString {
			return nil, fmt.Errorf("expr: between on string column %s needs string bounds", p.Col)
		}
		dict := src.Dict(col)
		lo := newBoundStrOrd(col, Ge, p.Lo.S, dict)
		hi := newBoundStrOrd(col, Le, p.Hi.S, dict)
		return &boundAnd{[]Bound{lo, hi}}, nil
	default:
		if p.Lo.Kind == KindFloat || p.Hi.Kind == KindFloat {
			return &boundAnd{[]Bound{
				&boundCmpIntAsFloat{col, Ge, p.Lo.AsFloat()},
				&boundCmpIntAsFloat{col, Le, p.Hi.AsFloat()},
			}}, nil
		}
		return &boundBetweenInt{col, p.Lo.I, p.Hi.I}, nil
	}
}

func bindIn(p *InPred, src Source) (Bound, error) {
	col, typ, err := colOf(src, p.Col)
	if err != nil {
		return nil, err
	}
	switch typ {
	case storage.Float64:
		set := make(map[float64]struct{}, len(p.Vals))
		for _, v := range p.Vals {
			set[v.AsFloat()] = struct{}{}
		}
		return &boundInFloat{col, set}, nil
	case storage.String:
		dict := src.Dict(col)
		set := make(map[int64]struct{}, len(p.Vals))
		for _, v := range p.Vals {
			if v.Kind != KindString {
				return nil, fmt.Errorf("expr: IN on string column %s with non-string literal", p.Col)
			}
			if code, found := dict.Lookup(v.S); found {
				set[code] = struct{}{}
			}
		}
		if len(set) == 0 {
			return boundFalse{}, nil
		}
		return &boundInInt{col, set, nil}, nil
	default:
		set := make(map[int64]struct{}, len(p.Vals))
		var sorted []int64
		for _, v := range p.Vals {
			switch v.Kind {
			case KindFloat:
				if v.F == math.Trunc(v.F) {
					set[int64(v.F)] = struct{}{}
				}
			case KindInt:
				set[v.I] = struct{}{}
			default:
				return nil, fmt.Errorf("expr: IN on %s column %s with string literal", typ, p.Col)
			}
		}
		for v := range set {
			sorted = append(sorted, v)
		}
		return &boundInInt{col, set, sorted}, nil
	}
}

func bindLike(p *LikePred, src Source) (Bound, error) {
	col, typ, err := colOf(src, p.Col)
	if err != nil {
		return nil, err
	}
	if typ != storage.String {
		return nil, fmt.Errorf("expr: LIKE on non-string column %s", p.Col)
	}
	dict := src.Dict(col)
	memo := make([]bool, dict.Len())
	for code := range memo {
		memo[code] = MatchLike(p.Pattern, dict.Value(int64(code)))
	}
	return &boundLike{col, p.Pattern, memo, dict, p.Negate}, nil
}

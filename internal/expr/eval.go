package expr

import "github.com/predcache/predcache/internal/storage"

// --- bound leaf nodes: vectorized evaluation + zone-map pruning ---

type boundTrue struct{}

func (boundTrue) Eval(_ *BlockCtx, sel []int) []int { return sel }
func (boundTrue) Prune(BoundsProvider) bool         { return false }

type boundFalse struct{}

func (boundFalse) Eval(_ *BlockCtx, sel []int) []int { return sel[:0] }
func (boundFalse) Prune(BoundsProvider) bool         { return true }

type boundCmpInt struct {
	col int
	op  CmpOp
	v   int64
}

func (b *boundCmpInt) Eval(ctx *BlockCtx, sel []int) []int {
	vec := ctx.ints[b.col]
	k := 0
	switch b.op {
	case Eq:
		for _, r := range sel {
			if vec[r] == b.v {
				sel[k] = r
				k++
			}
		}
	case Ne:
		for _, r := range sel {
			if vec[r] != b.v {
				sel[k] = r
				k++
			}
		}
	case Lt:
		for _, r := range sel {
			if vec[r] < b.v {
				sel[k] = r
				k++
			}
		}
	case Le:
		for _, r := range sel {
			if vec[r] <= b.v {
				sel[k] = r
				k++
			}
		}
	case Gt:
		for _, r := range sel {
			if vec[r] > b.v {
				sel[k] = r
				k++
			}
		}
	default:
		for _, r := range sel {
			if vec[r] >= b.v {
				sel[k] = r
				k++
			}
		}
	}
	return sel[:k]
}

func (b *boundCmpInt) Prune(bp BoundsProvider) bool {
	min, max, ok := bp.IntBounds(b.col)
	if !ok {
		return false
	}
	switch b.op {
	case Eq:
		return b.v < min || b.v > max
	case Ne:
		return min == max && min == b.v
	case Lt:
		return min >= b.v
	case Le:
		return min > b.v
	case Gt:
		return max <= b.v
	default: // Ge
		return max < b.v
	}
}

type boundCmpFloat struct {
	col int
	op  CmpOp
	v   float64
}

func (b *boundCmpFloat) Eval(ctx *BlockCtx, sel []int) []int {
	vec := ctx.floats[b.col]
	k := 0
	for _, r := range sel {
		if cmpFloat(b.op, vec[r], b.v) {
			sel[k] = r
			k++
		}
	}
	return sel[:k]
}

func (b *boundCmpFloat) Prune(bp BoundsProvider) bool {
	min, max, ok := bp.FloatBounds(b.col)
	if !ok {
		return false
	}
	switch b.op {
	case Eq:
		return b.v < min || b.v > max
	case Ne:
		return min == max && min == b.v
	case Lt:
		return min >= b.v
	case Le:
		return min > b.v
	case Gt:
		return max <= b.v
	default:
		return max < b.v
	}
}

// boundCmpIntAsFloat compares an integer column against a fractional
// literal in the float domain.
type boundCmpIntAsFloat struct {
	col int
	op  CmpOp
	v   float64
}

func (b *boundCmpIntAsFloat) Eval(ctx *BlockCtx, sel []int) []int {
	vec := ctx.ints[b.col]
	k := 0
	for _, r := range sel {
		if cmpFloat(b.op, float64(vec[r]), b.v) {
			sel[k] = r
			k++
		}
	}
	return sel[:k]
}

func (b *boundCmpIntAsFloat) Prune(bp BoundsProvider) bool {
	min, max, ok := bp.IntBounds(b.col)
	if !ok {
		return false
	}
	fmin, fmax := float64(min), float64(max)
	switch b.op {
	case Eq:
		return b.v < fmin || b.v > fmax
	case Ne:
		return fmin == fmax && fmin == b.v
	case Lt:
		return fmin >= b.v
	case Le:
		return fmin > b.v
	case Gt:
		return fmax <= b.v
	default:
		return fmax < b.v
	}
}

type boundCmpColsInt struct {
	colA int
	op   CmpOp
	colB int
}

func (b *boundCmpColsInt) Eval(ctx *BlockCtx, sel []int) []int {
	va, vb := ctx.ints[b.colA], ctx.ints[b.colB]
	k := 0
	for _, r := range sel {
		if cmpInt(b.op, va[r], vb[r]) {
			sel[k] = r
			k++
		}
	}
	return sel[:k]
}

func (b *boundCmpColsInt) Prune(bp BoundsProvider) bool {
	minA, maxA, okA := bp.IntBounds(b.colA)
	minB, maxB, okB := bp.IntBounds(b.colB)
	if !okA || !okB {
		return false
	}
	switch b.op {
	case Lt:
		return minA >= maxB
	case Le:
		return minA > maxB
	case Gt:
		return maxA <= minB
	case Ge:
		return maxA < minB
	case Eq:
		return maxA < minB || minA > maxB
	default:
		return false
	}
}

type boundCmpColsFloat struct {
	colA int
	op   CmpOp
	colB int
}

func (b *boundCmpColsFloat) Eval(ctx *BlockCtx, sel []int) []int {
	va, vb := ctx.floats[b.colA], ctx.floats[b.colB]
	k := 0
	for _, r := range sel {
		if cmpFloat(b.op, va[r], vb[r]) {
			sel[k] = r
			k++
		}
	}
	return sel[:k]
}

func (b *boundCmpColsFloat) Prune(bp BoundsProvider) bool {
	minA, maxA, okA := bp.FloatBounds(b.colA)
	minB, maxB, okB := bp.FloatBounds(b.colB)
	if !okA || !okB {
		return false
	}
	switch b.op {
	case Lt:
		return minA >= maxB
	case Le:
		return minA > maxB
	case Gt:
		return maxA <= minB
	case Ge:
		return maxA < minB
	case Eq:
		return maxA < minB || minA > maxB
	default:
		return false
	}
}

type boundBetweenInt struct {
	col    int
	lo, hi int64
}

func (b *boundBetweenInt) Eval(ctx *BlockCtx, sel []int) []int {
	vec := ctx.ints[b.col]
	k := 0
	for _, r := range sel {
		v := vec[r]
		if v >= b.lo && v <= b.hi {
			sel[k] = r
			k++
		}
	}
	return sel[:k]
}

func (b *boundBetweenInt) Prune(bp BoundsProvider) bool {
	min, max, ok := bp.IntBounds(b.col)
	if !ok {
		return false
	}
	return b.hi < min || b.lo > max
}

type boundBetweenFloat struct {
	col    int
	lo, hi float64
}

func (b *boundBetweenFloat) Eval(ctx *BlockCtx, sel []int) []int {
	vec := ctx.floats[b.col]
	k := 0
	for _, r := range sel {
		v := vec[r]
		if v >= b.lo && v <= b.hi {
			sel[k] = r
			k++
		}
	}
	return sel[:k]
}

func (b *boundBetweenFloat) Prune(bp BoundsProvider) bool {
	min, max, ok := bp.FloatBounds(b.col)
	if !ok {
		return false
	}
	return b.hi < min || b.lo > max
}

type boundInInt struct {
	col  int
	set  map[int64]struct{}
	vals []int64 // for pruning; nil for string-code sets (codes unordered)
}

func (b *boundInInt) Eval(ctx *BlockCtx, sel []int) []int {
	vec := ctx.ints[b.col]
	k := 0
	for _, r := range sel {
		if _, ok := b.set[vec[r]]; ok {
			sel[k] = r
			k++
		}
	}
	return sel[:k]
}

func (b *boundInInt) Prune(bp BoundsProvider) bool {
	if b.vals == nil {
		return false
	}
	min, max, ok := bp.IntBounds(b.col)
	if !ok {
		return false
	}
	for _, v := range b.vals {
		if v >= min && v <= max {
			return false
		}
	}
	return true
}

type boundInFloat struct {
	col int
	set map[float64]struct{}
}

func (b *boundInFloat) Eval(ctx *BlockCtx, sel []int) []int {
	vec := ctx.floats[b.col]
	k := 0
	for _, r := range sel {
		if _, ok := b.set[vec[r]]; ok {
			sel[k] = r
			k++
		}
	}
	return sel[:k]
}

func (b *boundInFloat) Prune(bp BoundsProvider) bool {
	min, max, ok := bp.FloatBounds(b.col)
	if !ok {
		return false
	}
	for v := range b.set {
		if v >= min && v <= max {
			return false
		}
	}
	return true
}

// boundStrOrd evaluates ordering comparisons on dictionary-coded strings via
// a bind-time memo over the dictionary.
type boundStrOrd struct {
	col  int
	op   CmpOp
	lit  string
	memo []bool
	dict *storage.Dict
}

func newBoundStrOrd(col int, op CmpOp, lit string, dict *storage.Dict) *boundStrOrd {
	memo := make([]bool, dict.Len())
	for code := range memo {
		memo[code] = cmpStr(op, dict.Value(int64(code)), lit)
	}
	return &boundStrOrd{col, op, lit, memo, dict}
}

func (b *boundStrOrd) match(code int64) bool {
	if int(code) < len(b.memo) {
		return b.memo[code]
	}
	return cmpStr(b.op, b.dict.Value(code), b.lit)
}

func (b *boundStrOrd) Eval(ctx *BlockCtx, sel []int) []int {
	vec := ctx.ints[b.col]
	k := 0
	for _, r := range sel {
		if b.match(vec[r]) {
			sel[k] = r
			k++
		}
	}
	return sel[:k]
}

func (b *boundStrOrd) Prune(BoundsProvider) bool { return false }

type boundLike struct {
	col     int
	pattern string
	memo    []bool
	dict    *storage.Dict
	negate  bool
}

func (b *boundLike) match(code int64) bool {
	var m bool
	if int(code) < len(b.memo) {
		m = b.memo[code]
	} else {
		m = MatchLike(b.pattern, b.dict.Value(code))
	}
	return m != b.negate
}

func (b *boundLike) Eval(ctx *BlockCtx, sel []int) []int {
	vec := ctx.ints[b.col]
	k := 0
	for _, r := range sel {
		if b.match(vec[r]) {
			sel[k] = r
			k++
		}
	}
	return sel[:k]
}

func (b *boundLike) Prune(BoundsProvider) bool { return false }

// --- composites ---

type boundAnd struct{ children []Bound }

func (b *boundAnd) Eval(ctx *BlockCtx, sel []int) []int {
	for _, c := range b.children {
		sel = c.Eval(ctx, sel)
		if len(sel) == 0 {
			return sel
		}
	}
	return sel
}

func (b *boundAnd) Prune(bp BoundsProvider) bool {
	for _, c := range b.children {
		if c.Prune(bp) {
			return true
		}
	}
	return false
}

type boundOr struct{ children []Bound }

// Eval runs each child over a copy of sel and marks the positions its
// output holds. A child's output is a subsequence of its input, so one walk
// over both finds each position.
func (b *boundOr) Eval(ctx *BlockCtx, sel []int) []int {
	scr := ctx.evalScratch()
	mark := scr.marks.take(len(sel))
	clear(mark)
	buf := scr.sels.take(len(sel))
	marked := 0
	for _, c := range b.children {
		copy(buf, sel)
		i := 0
		for _, r := range c.Eval(ctx, buf) {
			for sel[i] != r {
				i++
			}
			if !mark[i] {
				mark[i] = true
				marked++
			}
			i++
		}
		if marked == len(sel) {
			break
		}
	}
	k := 0
	for i, r := range sel {
		if mark[i] {
			sel[k] = r
			k++
		}
	}
	scr.sels.put()
	scr.marks.put()
	return sel[:k]
}

func (b *boundOr) Prune(bp BoundsProvider) bool {
	for _, c := range b.children {
		if !c.Prune(bp) {
			return false
		}
	}
	return len(b.children) > 0
}

type boundNot struct{ child Bound }

// Eval keeps the rows of sel missing from the child's output over a copy,
// which is a subsequence of sel.
func (b *boundNot) Eval(ctx *BlockCtx, sel []int) []int {
	scr := ctx.evalScratch()
	buf := scr.sels.take(len(sel))
	copy(buf, sel)
	out := b.child.Eval(ctx, buf)
	k, j := 0, 0
	for _, r := range sel {
		if j < len(out) && out[j] == r {
			j++
			continue
		}
		sel[k] = r
		k++
	}
	scr.sels.put()
	return sel[:k]
}

// Prune of a negation cannot use the child's pruning logic soundly (the
// child skipping means *all* rows fail the child — i.e. all rows pass the
// negation), so it never skips.
func (b *boundNot) Prune(BoundsProvider) bool { return false }

package expr

import (
	"fmt"

	"github.com/predcache/predcache/internal/storage"
)

// Scalar is an unbound scalar expression: column references, constants,
// arithmetic, and CASE WHEN. Scalars appear in projections and as
// aggregation inputs.
type Scalar interface {
	// Key returns the canonical text form (used for output naming and
	// materialized-view templates).
	Key() string
	// ScalarColumns appends referenced column names.
	ScalarColumns(dst []string) []string
}

// ColRef references a column by name.
type ColRef struct{ Name string }

// ConstScalar is a literal.
type ConstScalar struct{ Val Value }

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	default:
		return "/"
	}
}

// ArithScalar is L op R evaluated in the float64 domain.
type ArithScalar struct {
	Op   ArithOp
	L, R Scalar
}

// CaseScalar is CASE WHEN Cond THEN Then ELSE Else END. Cond is a predicate
// over the same source.
type CaseScalar struct {
	Cond Pred
	Then Scalar
	Else Scalar
}

// Col returns a column reference.
func Col(name string) *ColRef { return &ColRef{name} }

// Const returns a constant scalar.
func Const(v Value) *ConstScalar { return &ConstScalar{v} }

// Arith returns an arithmetic scalar.
func Arith(l Scalar, op ArithOp, r Scalar) *ArithScalar { return &ArithScalar{op, l, r} }

// Case returns a CASE WHEN scalar.
func Case(cond Pred, then, els Scalar) *CaseScalar { return &CaseScalar{cond, then, els} }

func (s *ColRef) Key() string      { return s.Name }
func (s *ConstScalar) Key() string { return s.Val.key() }
func (s *ArithScalar) Key() string {
	return "(" + s.Op.String() + " " + s.L.Key() + " " + s.R.Key() + ")"
}
func (s *CaseScalar) Key() string {
	return "(case " + s.Cond.Key() + " " + s.Then.Key() + " " + s.Else.Key() + ")"
}

func (s *ColRef) ScalarColumns(dst []string) []string      { return append(dst, s.Name) }
func (s *ConstScalar) ScalarColumns(dst []string) []string { return dst }
func (s *ArithScalar) ScalarColumns(dst []string) []string {
	return s.R.ScalarColumns(s.L.ScalarColumns(dst))
}
func (s *CaseScalar) ScalarColumns(dst []string) []string {
	dst = s.Cond.Columns(dst)
	dst = s.Then.ScalarColumns(dst)
	return s.Else.ScalarColumns(dst)
}

// BoundScalar is a scalar bound to a source. Out reports the natural output
// type: an integer representation (Int64/Date/Bool/String codes) or float.
// EvalF always works (integers are widened); EvalI is only valid when Out is
// an integer representation.
type BoundScalar interface {
	Out() storage.ColumnType
	// EvalF evaluates the scalar for the rows in sel, writing one float per
	// selected row into out (len(out) == len(sel)).
	EvalF(ctx *BlockCtx, sel []int, out []float64)
	// EvalI evaluates integer-representation scalars.
	EvalI(ctx *BlockCtx, sel []int, out []int64)
}

// BindScalar resolves a scalar against a source.
func BindScalar(s Scalar, src Source) (BoundScalar, error) {
	switch t := s.(type) {
	case *ColRef:
		col, typ, err := colOf(src, t.Name)
		if err != nil {
			return nil, err
		}
		return &boundColRef{col, typ}, nil
	case *ConstScalar:
		if t.Val.Kind == KindString {
			return nil, fmt.Errorf("expr: string constants in scalar context unsupported")
		}
		return &boundConst{t.Val}, nil
	case *ArithScalar:
		l, err := BindScalar(t.L, src)
		if err != nil {
			return nil, err
		}
		r, err := BindScalar(t.R, src)
		if err != nil {
			return nil, err
		}
		return &boundArith{t.Op, l, r}, nil
	case *YearScalar:
		arg, err := BindScalar(t.Arg, src)
		if err != nil {
			return nil, err
		}
		if !arg.Out().IsInt() {
			return nil, fmt.Errorf("expr: year() needs a date argument")
		}
		return &boundYear{arg}, nil
	case *CaseScalar:
		cond, err := Bind(t.Cond, src)
		if err != nil {
			return nil, err
		}
		then, err := BindScalar(t.Then, src)
		if err != nil {
			return nil, err
		}
		els, err := BindScalar(t.Else, src)
		if err != nil {
			return nil, err
		}
		return &boundCase{cond, then, els}, nil
	}
	return nil, fmt.Errorf("expr: cannot bind scalar %T", s)
}

type boundColRef struct {
	col int
	typ storage.ColumnType
}

func (b *boundColRef) Out() storage.ColumnType { return b.typ }

func (b *boundColRef) EvalF(ctx *BlockCtx, sel []int, out []float64) {
	if b.typ == storage.Float64 {
		vec := ctx.floats[b.col]
		for i, r := range sel {
			out[i] = vec[r]
		}
		return
	}
	vec := ctx.ints[b.col]
	for i, r := range sel {
		out[i] = float64(vec[r])
	}
}

func (b *boundColRef) EvalI(ctx *BlockCtx, sel []int, out []int64) {
	vec := ctx.ints[b.col]
	for i, r := range sel {
		out[i] = vec[r]
	}
}

type boundConst struct{ v Value }

func (b *boundConst) Out() storage.ColumnType {
	if b.v.Kind == KindFloat {
		return storage.Float64
	}
	return storage.Int64
}

func (b *boundConst) EvalF(_ *BlockCtx, sel []int, out []float64) {
	f := b.v.AsFloat()
	for i := range sel {
		out[i] = f
	}
}

func (b *boundConst) EvalI(_ *BlockCtx, sel []int, out []int64) {
	for i := range sel {
		out[i] = b.v.I
	}
}

type boundArith struct {
	op   ArithOp
	l, r BoundScalar
}

func (b *boundArith) Out() storage.ColumnType { return storage.Float64 }

func (b *boundArith) EvalF(ctx *BlockCtx, sel []int, out []float64) {
	// A constant operand applies in place, with no second vector.
	if c, ok := b.l.(*boundConst); ok {
		b.r.EvalF(ctx, sel, out)
		arithConst(b.op, c.v.AsFloat(), out, true)
		return
	}
	if c, ok := b.r.(*boundConst); ok {
		b.l.EvalF(ctx, sel, out)
		arithConst(b.op, c.v.AsFloat(), out, false)
		return
	}
	scr := ctx.evalScratch()
	rbuf := scr.fvecs.take(len(sel))
	defer scr.fvecs.put()
	b.l.EvalF(ctx, sel, out)
	b.r.EvalF(ctx, sel, rbuf)
	switch b.op {
	case Add:
		for i := range out {
			out[i] += rbuf[i]
		}
	case Sub:
		for i := range out {
			out[i] -= rbuf[i]
		}
	case Mul:
		for i := range out {
			out[i] *= rbuf[i]
		}
	default:
		for i := range out {
			out[i] /= rbuf[i]
		}
	}
}

// arithConst computes out[i] = c op out[i] when constLeft, else
// out[i] op c. IEEE addition and multiplication commute exactly, so only
// subtraction and division need the operand order.
func arithConst(op ArithOp, c float64, out []float64, constLeft bool) {
	switch {
	case op == Add:
		for i := range out {
			out[i] += c
		}
	case op == Mul:
		for i := range out {
			out[i] *= c
		}
	case op == Sub && constLeft:
		for i := range out {
			out[i] = c - out[i]
		}
	case op == Sub:
		for i := range out {
			out[i] -= c
		}
	case constLeft:
		for i := range out {
			out[i] = c / out[i]
		}
	default:
		for i := range out {
			out[i] /= c
		}
	}
}

func (b *boundArith) EvalI(_ *BlockCtx, _ []int, _ []int64) {
	panic("expr: EvalI on float scalar")
}

type boundCase struct {
	cond Bound
	then BoundScalar
	els  BoundScalar
}

func (b *boundCase) Out() storage.ColumnType { return storage.Float64 }

func (b *boundCase) EvalF(ctx *BlockCtx, sel []int, out []float64) {
	// Evaluate else for all rows, then overwrite rows matching the condition
	// with the then-branch values. The matched rows are a subsequence of
	// sel, so one walk finds each one's position.
	b.els.EvalF(ctx, sel, out)
	scr := ctx.evalScratch()
	buf := scr.sels.take(len(sel))
	defer scr.sels.put()
	copy(buf, sel)
	matched := b.cond.Eval(ctx, buf)
	if len(matched) == 0 {
		return
	}
	thenVals := scr.fvecs.take(len(matched))
	defer scr.fvecs.put()
	b.then.EvalF(ctx, matched, thenVals)
	i := 0
	for j, r := range matched {
		for sel[i] != r {
			i++
		}
		out[i] = thenVals[j]
		i++
	}
}

func (b *boundCase) EvalI(_ *BlockCtx, _ []int, _ []int64) {
	panic("expr: EvalI on float scalar")
}

// YearScalar extracts the calendar year from a date (day-number) scalar —
// SQL's extract(year from d).
type YearScalar struct{ Arg Scalar }

// Year builds a year-extraction scalar.
func Year(arg Scalar) *YearScalar { return &YearScalar{arg} }

func (s *YearScalar) Key() string { return "(year " + s.Arg.Key() + ")" }

func (s *YearScalar) ScalarColumns(dst []string) []string { return s.Arg.ScalarColumns(dst) }

type boundYear struct{ arg BoundScalar }

func (b *boundYear) Out() storage.ColumnType { return storage.Int64 }

func (b *boundYear) EvalI(ctx *BlockCtx, sel []int, out []int64) {
	b.arg.EvalI(ctx, sel, out)
	for i, d := range out {
		y, _, _ := storage.YMDFromDate(d)
		out[i] = int64(y)
	}
}

func (b *boundYear) EvalF(ctx *BlockCtx, sel []int, out []float64) {
	scr := ctx.evalScratch()
	tmp := scr.ivecs.take(len(sel))
	defer scr.ivecs.put()
	b.EvalI(ctx, sel, tmp)
	for i, v := range tmp {
		out[i] = float64(v)
	}
}

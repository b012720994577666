package sqldb

import (
	"fmt"
	"sort"

	"bestpeer/internal/sqlval"
)

// This file is the batch compiler: it walks a statement's expression
// trees once per plan and emits per-BATCH programs whose inner loops are
// the typed primitives in vector.go, specialized at compile time by the
// operand kinds the schema declares (sound because Table.Insert coerces
// every stored value to its column's kind or NULL; rows the engines
// synthesize are checked against their declared kinds when a column
// loads).
//
// Semantics follow evalExpr case by case — the differential tests hold
// every program against that interpreter — and each case below cites the
// row behavior it reproduces.

// bexpr evaluates one expression over the current batch, returning the
// result vector (a scratch slot, a loaded column, or a shared constant).
type bexpr func(ctx *bctx) *vec

// bpred evaluates one predicate over the current batch. The result is
// three-valued; consumers collapse NULL to false exactly where the row
// engine's predicate boundary does.
type bpred func(ctx *bctx) *pvec

// bctx is the per-run execution state of a batch program: the input
// rows, the selection vector, loaded column vectors, and the scratch
// slots compiled nodes write into. One bctx serves one row layout; it is
// pooled per plan so vectors are allocated once and reused every batch.
type bctx struct {
	f      *frame // the layout's names, for the kind-mismatch error
	kinds  []sqlval.Kind
	n      int
	sel    []int32
	rows   []sqlval.Row // the current batch: own (scans) or a window (joins/projection)
	own    []sqlval.Row // staging buffer scans accumulate rows into
	cols   []*vec
	loaded []bool
	slots  []*vec
	pslots []*pvec
	selBuf []int32
}

func newBctx(f *frame, kinds []sqlval.Kind) *bctx {
	return &bctx{
		f:      f,
		kinds:  kinds,
		cols:   make([]*vec, len(kinds)),
		loaded: make([]bool, len(kinds)),
		own:    make([]sqlval.Row, 0, batchSize),
		selBuf: make([]int32, 0, batchSize),
	}
}

// begin starts a batch over rows: full selection, no columns loaded yet.
func (ctx *bctx) begin(rows []sqlval.Row) {
	ctx.rows = rows
	ctx.n = len(rows)
	ctx.sel = identSel[:ctx.n]
	for i := range ctx.loaded {
		ctx.loaded[i] = false
	}
	batchesTotal.Inc()
	batchRows.Add(int64(ctx.n))
}

// vslot returns the scratch vector for a compiled node, growing the
// arena and (re)typing the lane as needed.
func (ctx *bctx) vslot(id int, kind sqlval.Kind) *vec {
	for len(ctx.slots) <= id {
		ctx.slots = append(ctx.slots, nil)
	}
	v := ctx.slots[id]
	if v == nil {
		v = &vec{}
		ctx.slots[id] = v
	}
	v.ensure(kind)
	return v
}

// pslot returns the scratch predicate vector for a compiled node.
func (ctx *bctx) pslot(id int) *pvec {
	for len(ctx.pslots) <= id {
		ctx.pslots = append(ctx.pslots, nil)
	}
	p := ctx.pslots[id]
	if p == nil {
		p = &pvec{}
		ctx.pslots[id] = p
	}
	p.ensure()
	return p
}

// loadCols unpacks the listed columns from the batch's rows into typed
// vectors at the current selection. A stored value whose kind disagrees
// with the layout's declared kind is an error: impossible for base
// tables (Insert and Update coerce), so it names a fault in whoever
// synthesized the rows (an engine's intermediate schema).
func (ctx *bctx) loadCols(offs []int) error {
	for _, off := range offs {
		if ctx.loaded[off] {
			continue
		}
		ctx.loaded[off] = true
		kind := ctx.kinds[off]
		v := ctx.cols[off]
		if v == nil {
			v = &vec{}
			ctx.cols[off] = v
		}
		v.ensure(kind)
		switch kind {
		case sqlval.KindInt, sqlval.KindDate:
			for _, i := range ctx.sel {
				val := ctx.rows[i][off]
				if val.IsNull() {
					v.null[i] = true
					continue
				}
				if val.Kind() != kind {
					return ctx.mismatch(off, val)
				}
				v.null[i] = false
				v.i[i] = val.AsInt()
			}
		case sqlval.KindFloat:
			for _, i := range ctx.sel {
				val := ctx.rows[i][off]
				if val.IsNull() {
					v.null[i] = true
					continue
				}
				if val.Kind() != kind {
					return ctx.mismatch(off, val)
				}
				v.null[i] = false
				v.f[i] = val.AsFloat()
			}
		case sqlval.KindString:
			for _, i := range ctx.sel {
				val := ctx.rows[i][off]
				if val.IsNull() {
					v.null[i] = true
					continue
				}
				if val.Kind() != kind {
					return ctx.mismatch(off, val)
				}
				v.null[i] = false
				v.s[i] = val.AsString()
			}
		default: // declared without a storable kind (a NULL literal's column): only NULLs fit
			for _, i := range ctx.sel {
				if val := ctx.rows[i][off]; !val.IsNull() {
					return ctx.mismatch(off, val)
				}
			}
		}
	}
	return nil
}

// mismatch reports a stored value that contradicts its column's
// declared kind.
func (ctx *bctx) mismatch(off int, val sqlval.Value) error {
	for _, b := range ctx.f.bindings {
		if ci := off - b.offset; ci < len(b.schema.Columns) {
			return fmt.Errorf("sqldb: column %s.%s is declared %s but holds a %s value",
				b.alias, b.schema.Columns[ci].Name, ctx.kinds[off], val.Kind())
		}
	}
	return fmt.Errorf("sqldb: column %d is declared %s but holds a %s value", off, ctx.kinds[off], val.Kind())
}

// bval is a compiled value-position expression: either a program or a
// compile-time constant broadcast into a shared read-only vector. kind
// is the static result kind (KindNull = statically NULL).
type bval struct {
	kind sqlval.Kind
	fn   bexpr
	cv   *vec         // constant vector when fn == nil
	cval sqlval.Value // the constant when fn == nil
}

func (b *bval) isConst() bool { return b.fn == nil }

func (b *bval) eval(ctx *bctx) *vec {
	if b.fn == nil {
		return b.cv
	}
	return b.fn(ctx)
}

func bconst(v sqlval.Value) bval {
	return bval{kind: v.Kind(), cv: constVec(v), cval: v}
}

// constPvec builds a read-only full-length predicate vector.
func constPvec(val, null bool) *pvec {
	p := &pvec{}
	p.ensure()
	for i := 0; i < batchSize; i++ {
		p.val[i], p.null[i] = val, null
	}
	return p
}

// bcomp is the compile-time context for one program family (a scan
// filter, one side's join keys, a projection): the frame it resolves
// against, the column offsets it needs loaded, and the scratch-slot
// counters. Programs from different families may share slot IDs only
// because they never have live results at the same time on one bctx.
type bcomp struct {
	f       *frame
	kinds   []sqlval.Kind
	need    map[int]bool
	nslots  int
	npslots int
}

func newBcomp(f *frame) *bcomp {
	return &bcomp{f: f, kinds: frameKinds(f), need: make(map[int]bool)}
}

// frameKinds flattens the frame's schemas into per-offset value kinds.
func frameKinds(f *frame) []sqlval.Kind {
	out := make([]sqlval.Kind, 0, f.width)
	for _, b := range f.bindings {
		for _, c := range b.schema.Columns {
			out = append(out, c.Kind)
		}
	}
	return out
}

func (c *bcomp) vslot() int   { id := c.nslots; c.nslots++; return id }
func (c *bcomp) pslotID() int { id := c.npslots; c.npslots++; return id }

// offsets returns the needed column offsets in deterministic order.
func (c *bcomp) offsets() []int {
	out := make([]int, 0, len(c.need))
	for off := range c.need {
		out = append(out, off)
	}
	sort.Ints(out)
	return out
}

// compileValues compiles a list of value expressions (join keys).
func (c *bcomp) compileValues(exprs []Expr) ([]bval, error) {
	out := make([]bval, 0, len(exprs))
	for _, e := range exprs {
		bv, err := c.compileValue(e)
		if err != nil {
			return nil, err
		}
		out = append(out, bv)
	}
	return out, nil
}

// compileValue follows evalExpr: one case per expression form, each
// annotated with the row semantics it reproduces.
func (c *bcomp) compileValue(e Expr) (bval, error) {
	switch x := e.(type) {
	case *Literal:
		return bconst(x.Val), nil

	case *ColumnRef:
		off, err := c.f.resolve(x)
		if err != nil {
			return bval{}, err
		}
		c.need[off] = true
		kind := c.kinds[off]
		return bval{kind: kind, fn: func(ctx *bctx) *vec { return ctx.cols[off] }}, nil

	case *Binary:
		switch x.Op {
		case "AND", "OR":
			// Row: both children collapse NULL to bool, result is a
			// never-NULL 0/1 (evalExpr AND/OR via evalPred).
			l, err := c.compilePred(x.L)
			if err != nil {
				return bval{}, err
			}
			r, err := c.compilePred(x.R)
			if err != nil {
				return bval{}, err
			}
			ps, vs := c.pslotID(), c.vslot()
			and := x.Op == "AND"
			return bval{kind: sqlval.KindInt, fn: func(ctx *bctx) *vec {
				lp, rp := l(ctx), r(ctx)
				out := ctx.pslot(ps)
				if and {
					andPred(lp, rp, out, ctx.sel)
				} else {
					orPred(lp, rp, out, ctx.sel)
				}
				v := ctx.vslot(vs, sqlval.KindInt)
				predToVec(out, v, ctx.sel)
				return v
			}}, nil
		case "+", "-", "*", "/":
			l, err := c.compileValue(x.L)
			if err != nil {
				return bval{}, err
			}
			r, err := c.compileValue(x.R)
			if err != nil {
				return bval{}, err
			}
			return c.arith(l, r, x.Op)
		default: // comparison: NULL operands yield NULL (kept in the pvec)
			l, err := c.compileValue(x.L)
			if err != nil {
				return bval{}, err
			}
			r, err := c.compileValue(x.R)
			if err != nil {
				return bval{}, err
			}
			return c.predValue(c.compileCmp(l, r, x.Op)), nil
		}

	case *Unary:
		inner, err := c.compileValue(x.E)
		if err != nil {
			return bval{}, err
		}
		if x.Op == "NOT" {
			// Row: NULL stays NULL, else !truthy.
			if inner.isConst() {
				if inner.cval.IsNull() {
					return bconst(sqlval.Null()), nil
				}
				return bconst(boolVal(!truthy(inner.cval))), nil
			}
			tp, np := c.pslotID(), c.pslotID()
			vs := c.vslot()
			return bval{kind: sqlval.KindInt, fn: func(ctx *bctx) *vec {
				t := ctx.pslot(tp)
				truthyPred(inner.eval(ctx), t, ctx.sel)
				n := ctx.pslot(np)
				notPred(t, n, ctx.sel)
				out := ctx.vslot(vs, sqlval.KindInt)
				predToVec(n, out, ctx.sel)
				return out
			}}, nil
		}
		// Unary minus: row computes Sub(Int(0), v).
		zero := bconst(sqlval.Int(0))
		return c.arith(zero, inner, "-")

	case *Between:
		// Row: NULL in subject or either bound yields NULL; otherwise
		// ge(v,lo) && le(v,hi), flipped by NOT. The raw AND keeps the
		// union of the operand NULL flags, matching the row check.
		ev, err := c.compileValue(x.E)
		if err != nil {
			return bval{}, err
		}
		lo, err := c.compileValue(x.Lo)
		if err != nil {
			return bval{}, err
		}
		hi, err := c.compileValue(x.Hi)
		if err != nil {
			return bval{}, err
		}
		ge, le := c.compileCmp(ev, lo, ">="), c.compileCmp(ev, hi, "<=")
		ps := c.pslotID()
		var p bpred = func(ctx *bctx) *pvec {
			g, l := ge(ctx), le(ctx)
			out := ctx.pslot(ps)
			rawAndPred(g, l, out, ctx.sel)
			return out
		}
		if x.Not {
			np := c.pslotID()
			in := p
			p = func(ctx *bctx) *pvec {
				out := ctx.pslot(np)
				notPred(in(ctx), out, ctx.sel)
				return out
			}
		}
		return c.predValue(p), nil

	case *InList:
		// Row: NULL subject yields NULL; NULL list items are skipped; a
		// match yields !not, exhaustion yields not.
		ev, err := c.compileValue(x.E)
		if err != nil {
			return bval{}, err
		}
		eqs := make([]bpred, len(x.List))
		for i, item := range x.List {
			iv, err := c.compileValue(item)
			if err != nil {
				return bval{}, err
			}
			eqs[i] = c.compileCmp(ev, iv, "=")
		}
		acc, outp := c.pslotID(), c.pslotID()
		not := x.Not
		return c.predValue(func(ctx *bctx) *pvec {
			a := ctx.pslot(acc)
			for _, i := range ctx.sel {
				a.val[i], a.null[i] = false, false
			}
			for _, eq := range eqs {
				orMatched(a, eq(ctx), ctx.sel)
			}
			out := ctx.pslot(outp)
			inListFinish(ev.eval(ctx), a, out, ctx.sel, not)
			return out
		}), nil

	case *IsNull:
		ev, err := c.compileValue(x.E)
		if err != nil {
			return bval{}, err
		}
		ps := c.pslotID()
		not := x.Not
		return c.predValue(func(ctx *bctx) *pvec {
			out := ctx.pslot(ps)
			isNullPred(ev.eval(ctx), out, ctx.sel, not)
			return out
		}), nil

	case *FuncCall:
		if isAggregateName(x.Name) {
			return bval{}, fmt.Errorf("sqldb: aggregate %s outside aggregation context", x.Name)
		}
		return bval{}, fmt.Errorf("sqldb: unknown function %s", x.Name)
	default:
		return bval{}, fmt.Errorf("sqldb: cannot evaluate %T", e)
	}
}

// predValue boxes a predicate program into a 0/1 INT value, NULLs kept.
func (c *bcomp) predValue(p bpred) bval {
	vs := c.vslot()
	return bval{kind: sqlval.KindInt, fn: func(ctx *bctx) *vec {
		out := ctx.vslot(vs, sqlval.KindInt)
		predToVec(p(ctx), out, ctx.sel)
		return out
	}}
}

// arith compiles +,-,*,/ with the exact widening ladder of sqlval.arith:
// INT∘INT stays INT; any FLOAT widens both sides; a non-numeric operand
// (string, date, NULL) makes the result statically NULL; division is
// always FLOAT with NULL on zero divisors.
func (c *bcomp) arith(l, r bval, op string) (bval, error) {
	if l.isConst() && r.isConst() {
		var v sqlval.Value
		switch op {
		case "+":
			v = sqlval.Add(l.cval, r.cval)
		case "-":
			v = sqlval.Sub(l.cval, r.cval)
		case "*":
			v = sqlval.Mul(l.cval, r.cval)
		default:
			v = sqlval.Div(l.cval, r.cval)
		}
		return bconst(v), nil
	}
	numeric := func(k sqlval.Kind) bool { return k == sqlval.KindInt || k == sqlval.KindFloat }
	if !numeric(l.kind) || !numeric(r.kind) {
		return bconst(sqlval.Null()), nil
	}
	if op == "/" {
		lf, rf := c.asFloat(l), c.asFloat(r)
		vs := c.vslot()
		return bval{kind: sqlval.KindFloat, fn: func(ctx *bctx) *vec {
			out := ctx.vslot(vs, sqlval.KindFloat)
			divFloatVV(lf(ctx), rf(ctx), out, ctx.sel)
			return out
		}}, nil
	}
	if l.kind == sqlval.KindInt && r.kind == sqlval.KindInt {
		var prim func(l, r, out *vec, sel []int32)
		switch op {
		case "+":
			prim = addIntVV
		case "-":
			prim = subIntVV
		default:
			prim = mulIntVV
		}
		vs := c.vslot()
		return bval{kind: sqlval.KindInt, fn: func(ctx *bctx) *vec {
			out := ctx.vslot(vs, sqlval.KindInt)
			prim(l.eval(ctx), r.eval(ctx), out, ctx.sel)
			return out
		}}, nil
	}
	var prim func(l, r, out *vec, sel []int32)
	switch op {
	case "+":
		prim = addFloatVV
	case "-":
		prim = subFloatVV
	default:
		prim = mulFloatVV
	}
	lf, rf := c.asFloat(l), c.asFloat(r)
	vs := c.vslot()
	return bval{kind: sqlval.KindFloat, fn: func(ctx *bctx) *vec {
		out := ctx.vslot(vs, sqlval.KindFloat)
		prim(lf(ctx), rf(ctx), out, ctx.sel)
		return out
	}}, nil
}

// asFloat widens an INT/DATE-lane operand into a float vector (the
// batch twin of AsFloat); FLOAT operands pass through untouched.
func (c *bcomp) asFloat(b bval) bexpr {
	if b.kind == sqlval.KindFloat {
		eb := b
		return func(ctx *bctx) *vec { return eb.eval(ctx) }
	}
	if b.isConst() {
		cv := constVec(sqlval.Float(b.cval.AsFloat()))
		return func(*bctx) *vec { return cv }
	}
	vs := c.vslot()
	inner := b.fn
	return func(ctx *bctx) *vec {
		dst := ctx.vslot(vs, sqlval.KindFloat)
		toFloat(inner(ctx), dst, ctx.sel)
		return dst
	}
}

// compileCmp compiles one comparison, dispatching on the static operand
// kinds the way compareCoerced dispatches on runtime kinds:
//   - equal kinds use the typed lane loop;
//   - mixed number-line kinds (INT, FLOAT, DATE) widen to float;
//   - a DATE vs constant-string pair parses the string once here;
//     unparseable strings and any pairing that sqlval.Compare orders by
//     kind tag become constant-outcome loops;
//   - a DATE vs non-constant string parses per row (cmpDateStrVV).
//
// An operator outside the six comparisons has an all-false mask, so
// every loop yields false on non-NULL operands, as compareCoerced does.
func (c *bcomp) compileCmp(l, r bval, op string) bpred {
	lt, eq, gt := opMasks(op)
	if l.isConst() && r.isConst() {
		if l.cval.IsNull() || r.cval.IsNull() {
			p := constPvec(false, true)
			return func(*bctx) *pvec { return p }
		}
		p := constPvec(compareCoerced(l.cval, r.cval, op), false)
		return func(*bctx) *pvec { return p }
	}
	if l.kind == sqlval.KindNull || r.kind == sqlval.KindNull {
		p := constPvec(false, true)
		return func(*bctx) *pvec { return p }
	}
	ps := c.pslotID()
	if l.kind == sqlval.KindDate && r.kind == sqlval.KindString {
		if !r.isConst() {
			return func(ctx *bctx) *pvec {
				out := ctx.pslot(ps)
				cmpDateStrVV(l.eval(ctx), r.eval(ctx), out, ctx.sel, lt, eq, gt)
				return out
			}
		}
		if d, err := sqlval.ParseDate(r.cval.AsString()); err == nil {
			r = bconst(d)
		}
	}
	if r.kind == sqlval.KindDate && l.kind == sqlval.KindString {
		if !l.isConst() {
			// s op d holds exactly when d op' s does, op' being op with
			// < and > swapped.
			return func(ctx *bctx) *pvec {
				out := ctx.pslot(ps)
				cmpDateStrVV(r.eval(ctx), l.eval(ctx), out, ctx.sel, gt, eq, lt)
				return out
			}
		}
		if d, err := sqlval.ParseDate(l.cval.AsString()); err == nil {
			l = bconst(d)
		}
	}
	numLike := func(k sqlval.Kind) bool {
		return k == sqlval.KindInt || k == sqlval.KindFloat || k == sqlval.KindDate
	}
	switch {
	case l.kind == r.kind && (l.kind == sqlval.KindInt || l.kind == sqlval.KindDate):
		return func(ctx *bctx) *pvec {
			out := ctx.pslot(ps)
			cmpIntVV(l.eval(ctx), r.eval(ctx), out, ctx.sel, lt, eq, gt)
			return out
		}
	case l.kind == r.kind && l.kind == sqlval.KindFloat:
		return func(ctx *bctx) *pvec {
			out := ctx.pslot(ps)
			cmpFloatVV(l.eval(ctx), r.eval(ctx), out, ctx.sel, lt, eq, gt)
			return out
		}
	case l.kind == r.kind && l.kind == sqlval.KindString:
		return func(ctx *bctx) *pvec {
			out := ctx.pslot(ps)
			cmpStrVV(l.eval(ctx), r.eval(ctx), out, ctx.sel, lt, eq, gt)
			return out
		}
	case numLike(l.kind) && numLike(r.kind):
		lf, rf := c.asFloat(l), c.asFloat(r)
		return func(ctx *bctx) *pvec {
			out := ctx.pslot(ps)
			cmpFloatVV(lf(ctx), rf(ctx), out, ctx.sel, lt, eq, gt)
			return out
		}
	default:
		// Different kinds, not both number-line: sqlval.Compare orders by
		// kind tag, so the non-NULL outcome is a compile-time constant.
		ctag := 1
		if l.kind < r.kind {
			ctag = -1
		}
		res := (ctag < 0 && lt) || (ctag > 0 && gt)
		return func(ctx *bctx) *pvec {
			out := ctx.pslot(ps)
			cmpConstResult(l.eval(ctx), r.eval(ctx), out, ctx.sel, res)
			return out
		}
	}
}

// compilePred is compileValue for predicate position: AND/OR collapse each child's NULL
// to false; comparisons and IS NULL compile directly; everything else
// goes through value truthiness with NULLs kept for the consumer.
func (c *bcomp) compilePred(e Expr) (bpred, error) {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case "AND", "OR":
			l, err := c.compilePred(x.L)
			if err != nil {
				return nil, err
			}
			r, err := c.compilePred(x.R)
			if err != nil {
				return nil, err
			}
			ps := c.pslotID()
			and := x.Op == "AND"
			return func(ctx *bctx) *pvec {
				lp, rp := l(ctx), r(ctx)
				out := ctx.pslot(ps)
				if and {
					andPred(lp, rp, out, ctx.sel)
				} else {
					orPred(lp, rp, out, ctx.sel)
				}
				return out
			}, nil
		case "+", "-", "*", "/":
			// Arithmetic in predicate position: truthiness of the value.
		default:
			l, err := c.compileValue(x.L)
			if err != nil {
				return nil, err
			}
			r, err := c.compileValue(x.R)
			if err != nil {
				return nil, err
			}
			return c.compileCmp(l, r, x.Op), nil
		}
	case *IsNull:
		ev, err := c.compileValue(x.E)
		if err != nil {
			return nil, err
		}
		ps := c.pslotID()
		not := x.Not
		return func(ctx *bctx) *pvec {
			out := ctx.pslot(ps)
			isNullPred(ev.eval(ctx), out, ctx.sel, not)
			return out
		}, nil
	}
	v, err := c.compileValue(e)
	if err != nil {
		return nil, err
	}
	if v.isConst() {
		p := constPvec(!v.cval.IsNull() && truthy(v.cval), v.cval.IsNull())
		return func(*bctx) *pvec { return p }, nil
	}
	ps := c.pslotID()
	return func(ctx *bctx) *pvec {
		out := ctx.pslot(ps)
		truthyPred(v.eval(ctx), out, ctx.sel)
		return out
	}, nil
}

// compileFilter fuses per-table conjuncts into one batch predicate; each
// conjunct's NULL collapses to false at the fold, exactly like the row
// filter's per-conjunct boundary. nil means nothing to filter.
func (c *bcomp) compileFilter(conjuncts []Expr) (bpred, error) {
	if len(conjuncts) == 0 {
		return nil, nil
	}
	preds := make([]bpred, len(conjuncts))
	for i, e := range conjuncts {
		fn, err := c.compilePred(e)
		if err != nil {
			return nil, err
		}
		preds[i] = fn
	}
	if len(preds) == 1 {
		return preds[0], nil
	}
	acc := c.pslotID()
	return func(ctx *bctx) *pvec {
		out := ctx.pslot(acc)
		andPred(preds[0](ctx), preds[1](ctx), out, ctx.sel)
		for _, p := range preds[2:] {
			andPred(out, p(ctx), out, ctx.sel)
		}
		return out
	}, nil
}

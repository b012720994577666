package sqldb

import (
	"bestpeer/internal/sqlval"
	"bestpeer/internal/telemetry"
)

// This file is the data plane of the executor: typed column
// vectors of up to batchSize rows, three-valued predicate vectors, the
// selection vector carried from scan through filter to projection, and
// the tight per-lane loops comparators and arithmetic compile down to.
//
// Values never box inside a batch: an INT column is a []int64, a
// comparison is one branch-light loop over the selection vector, and
// NULLs ride in a parallel []bool. sqlval.Value appears only at the
// edges — loading a column from stored rows and materializing output
// rows — so interface dispatch, Value construction and kind switches
// are paid once per batch instead of once per row per operator.

// batchSize is the number of rows processed per batch: big enough to
// amortize per-batch dispatch, small enough that a batch's working set
// (a handful of 8 KiB vectors) stays cache-resident.
const batchSize = 1024

var (
	batchesTotal = telemetry.Default.Counter("sqldb_batches_total")
	batchRows    = telemetry.Default.Counter("sqldb_batch_rows_total")
	// batchSelDensity records the fraction of each batch surviving the
	// filter — the selection-bitmap density.
	batchSelDensity = telemetry.Default.Histogram("sqldb_batch_selectivity",
		[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1})
)

// identSel is the shared all-rows selection vector; scans slice it to
// the batch length. It is never written after init.
var identSel [batchSize]int32

func init() {
	for i := range identSel {
		identSel[i] = int32(i)
	}
}

// vec is one typed column vector. The lane in use depends on kind:
// INT and DATE share the int64 lane, FLOAT the float64 lane, VARCHAR
// the string lane. kind==KindNull marks a statically all-NULL vector
// (no lanes allocated). Entries are only valid at selected positions.
type vec struct {
	kind sqlval.Kind
	i    []int64
	f    []float64
	s    []string
	null []bool
}

// ensure readies the vector for writes at positions < batchSize under
// the given kind, allocating lanes on first use.
func (v *vec) ensure(kind sqlval.Kind) {
	v.kind = kind
	if v.null == nil {
		v.null = make([]bool, batchSize)
	}
	switch kind {
	case sqlval.KindInt, sqlval.KindDate:
		if v.i == nil {
			v.i = make([]int64, batchSize)
		}
	case sqlval.KindFloat:
		if v.f == nil {
			v.f = make([]float64, batchSize)
		}
	case sqlval.KindString:
		if v.s == nil {
			v.s = make([]string, batchSize)
		}
	}
}

// value boxes the element at i back into a sqlval.Value.
func (v *vec) value(i int32) sqlval.Value {
	if v.kind == sqlval.KindNull || v.null[i] {
		return sqlval.Null()
	}
	switch v.kind {
	case sqlval.KindInt:
		return sqlval.Int(v.i[i])
	case sqlval.KindDate:
		return sqlval.Date(v.i[i])
	case sqlval.KindFloat:
		return sqlval.Float(v.f[i])
	default:
		return sqlval.Str(v.s[i])
	}
}

// isNullAt reports NULL-ness handling the all-NULL kind.
func (v *vec) isNullAt(i int32) bool {
	return v.kind == sqlval.KindNull || v.null[i]
}

// constVec broadcasts a constant into a full-length vector once at
// compile time; the result is read-only and shared by every run.
func constVec(val sqlval.Value) *vec {
	v := &vec{}
	if val.IsNull() {
		v.kind = sqlval.KindNull
		return v
	}
	v.ensure(val.Kind())
	for i := 0; i < batchSize; i++ {
		switch val.Kind() {
		case sqlval.KindInt, sqlval.KindDate:
			v.i[i] = val.AsInt()
		case sqlval.KindFloat:
			v.f[i] = val.AsFloat()
		case sqlval.KindString:
			v.s[i] = val.AsString()
		}
	}
	return v
}

// pvec is a three-valued predicate vector: val is meaningful where null
// is false. Consumers collapse NULL to false exactly where the row
// engine's predicate boundary does.
type pvec struct {
	val  []bool
	null []bool
}

func (p *pvec) ensure() {
	if p.val == nil {
		p.val = make([]bool, batchSize)
		p.null = make([]bool, batchSize)
	}
}

// --- comparison primitives ---------------------------------------------
//
// Each loop computes the three-way comparison c and tests it against the
// operator's (lt, eq, gt) mask; masks are fixed at compile time so no
// per-element indirect call happens. Float comparisons go through the
// same three-branch form as sqlval.Compare's cmpFloat so NaN orders
// identically ("not less, not greater" collapses to equal).

func opMasks(op string) (lt, eq, gt bool) {
	switch op {
	case "=":
		return false, true, false
	case "<>":
		return true, false, true
	case "<":
		return true, false, false
	case "<=":
		return true, true, false
	case ">":
		return false, false, true
	case ">=":
		return false, true, true
	default:
		return false, false, false
	}
}

func cmpIntVV(l, r *vec, out *pvec, sel []int32, lt, eq, gt bool) {
	for _, i := range sel {
		if l.null[i] || r.null[i] {
			out.null[i], out.val[i] = true, false
			continue
		}
		out.null[i] = false
		a, b := l.i[i], r.i[i]
		out.val[i] = (a < b && lt) || (a == b && eq) || (a > b && gt)
	}
}

func cmpFloatVV(l, r *vec, out *pvec, sel []int32, lt, eq, gt bool) {
	for _, i := range sel {
		if l.null[i] || r.null[i] {
			out.null[i], out.val[i] = true, false
			continue
		}
		out.null[i] = false
		a, b := l.f[i], r.f[i]
		switch {
		case a < b:
			out.val[i] = lt
		case a > b:
			out.val[i] = gt
		default:
			out.val[i] = eq
		}
	}
}

func cmpStrVV(l, r *vec, out *pvec, sel []int32, lt, eq, gt bool) {
	for _, i := range sel {
		if l.null[i] || r.null[i] {
			out.null[i], out.val[i] = true, false
			continue
		}
		out.null[i] = false
		a, b := l.s[i], r.s[i]
		out.val[i] = (a < b && lt) || (a == b && eq) || (a > b && gt)
	}
}

// cmpDateStrVV compares a DATE lane with a string lane the way
// compareCoerced does per row: a string that parses as a date compares
// as one; any other string orders below every date (sqlval.Compare's
// kind-tag order), so the date side is "greater".
func cmpDateStrVV(d, s *vec, out *pvec, sel []int32, lt, eq, gt bool) {
	for _, i := range sel {
		if d.null[i] || s.null[i] {
			out.null[i], out.val[i] = true, false
			continue
		}
		out.null[i] = false
		p, err := sqlval.ParseDate(s.s[i])
		if err != nil {
			out.val[i] = gt
			continue
		}
		a, b := d.i[i], p.AsInt()
		out.val[i] = (a < b && lt) || (a == b && eq) || (a > b && gt)
	}
}

// cmpConstResult fills the outcome of comparisons whose non-NULL result
// is a compile-time constant (mismatched kinds ordering by kind tag).
func cmpConstResult(l, r *vec, out *pvec, sel []int32, res bool) {
	for _, i := range sel {
		if l.isNullAt(i) || r.isNullAt(i) {
			out.null[i], out.val[i] = true, false
			continue
		}
		out.null[i], out.val[i] = false, res
	}
}

// toFloat widens an int-lane vector into the destination's float lane
// (the compile-time twin of AsFloat for mixed-kind comparisons).
func toFloat(src, dst *vec, sel []int32) {
	for _, i := range sel {
		dst.null[i] = src.null[i]
		dst.f[i] = float64(src.i[i])
	}
}

// --- arithmetic primitives ---------------------------------------------

func addIntVV(l, r, out *vec, sel []int32) {
	for _, i := range sel {
		out.null[i] = l.null[i] || r.null[i]
		out.i[i] = l.i[i] + r.i[i]
	}
}

func subIntVV(l, r, out *vec, sel []int32) {
	for _, i := range sel {
		out.null[i] = l.null[i] || r.null[i]
		out.i[i] = l.i[i] - r.i[i]
	}
}

func mulIntVV(l, r, out *vec, sel []int32) {
	for _, i := range sel {
		out.null[i] = l.null[i] || r.null[i]
		out.i[i] = l.i[i] * r.i[i]
	}
}

func addFloatVV(l, r, out *vec, sel []int32) {
	for _, i := range sel {
		out.null[i] = l.null[i] || r.null[i]
		out.f[i] = l.f[i] + r.f[i]
	}
}

func subFloatVV(l, r, out *vec, sel []int32) {
	for _, i := range sel {
		out.null[i] = l.null[i] || r.null[i]
		out.f[i] = l.f[i] - r.f[i]
	}
}

func mulFloatVV(l, r, out *vec, sel []int32) {
	for _, i := range sel {
		out.null[i] = l.null[i] || r.null[i]
		out.f[i] = l.f[i] * r.f[i]
	}
}

// divFloatVV mirrors sqlval.Div: always a float, NULL on zero divisor.
func divFloatVV(l, r, out *vec, sel []int32) {
	for _, i := range sel {
		if l.null[i] || r.null[i] || r.f[i] == 0 {
			out.null[i] = true
			continue
		}
		out.null[i] = false
		out.f[i] = l.f[i] / r.f[i]
	}
}

// --- boolean primitives ------------------------------------------------

// andPred collapses each operand's NULL to false (evalExpr does exactly
// this on AND/OR children, through evalPred) and ANDs.
// The output carries no NULLs. Operands are read before the output is
// written so out may alias a (the filter fold accumulates in place).
func andPred(a, b, out *pvec, sel []int32) {
	for _, i := range sel {
		av := a.val[i] && !a.null[i]
		bv := b.val[i] && !b.null[i]
		out.val[i], out.null[i] = av && bv, false
	}
}

func orPred(a, b, out *pvec, sel []int32) {
	for _, i := range sel {
		av := a.val[i] && !a.null[i]
		bv := b.val[i] && !b.null[i]
		out.val[i], out.null[i] = av || bv, false
	}
}

// rawAndPred ANDs without collapsing: the output is NULL when either
// operand is NULL (BETWEEN's value semantics — any NULL bound or
// subject yields NULL, not false).
func rawAndPred(a, b, out *pvec, sel []int32) {
	for _, i := range sel {
		av, an := a.val[i], a.null[i]
		bv, bn := b.val[i], b.null[i]
		out.val[i], out.null[i] = av && bv && !an && !bn, an || bn
	}
}

// notPred negates where known; NULL stays NULL (value-semantics NOT).
func notPred(a, out *pvec, sel []int32) {
	for _, i := range sel {
		av, an := a.val[i], a.null[i]
		out.val[i], out.null[i] = !av && !an, an
	}
}

// orMatched accumulates IN-list membership: a definite match from one
// item comparison sets the accumulator; NULL comparisons (NULL list
// items) are skipped, exactly as evalExpr's IN loop skips them.
func orMatched(acc, c *pvec, sel []int32) {
	for _, i := range sel {
		if c.val[i] && !c.null[i] {
			acc.val[i] = true
		}
	}
}

// inListFinish produces the IN result from the match accumulator: NULL
// subject yields NULL; otherwise matched != not.
func inListFinish(subject *vec, acc, out *pvec, sel []int32, not bool) {
	for _, i := range sel {
		if subject.isNullAt(i) {
			out.null[i], out.val[i] = true, false
			continue
		}
		out.null[i], out.val[i] = false, acc.val[i] != not
	}
}

// truthyPred converts a value vector to a predicate, keeping NULLs:
// numerics test non-zero, strings and dates are true (mirrors truthy).
func truthyPred(v *vec, out *pvec, sel []int32) {
	switch v.kind {
	case sqlval.KindNull:
		for _, i := range sel {
			out.null[i], out.val[i] = true, false
		}
	case sqlval.KindInt, sqlval.KindDate:
		if v.kind == sqlval.KindDate {
			// Dates are truthy whenever non-NULL.
			for _, i := range sel {
				out.null[i] = v.null[i]
				out.val[i] = !v.null[i]
			}
			return
		}
		for _, i := range sel {
			out.null[i] = v.null[i]
			out.val[i] = !v.null[i] && v.i[i] != 0
		}
	case sqlval.KindFloat:
		for _, i := range sel {
			out.null[i] = v.null[i]
			out.val[i] = !v.null[i] && v.f[i] != 0
		}
	default: // strings: truthy whenever non-NULL
		for _, i := range sel {
			out.null[i] = v.null[i]
			out.val[i] = !v.null[i]
		}
	}
}

// predToVec boxes a predicate back into an INT 0/1 vector, keeping
// NULLs (a comparison in value position yields NULL on NULL operands).
func predToVec(p *pvec, out *vec, sel []int32) {
	for _, i := range sel {
		out.null[i] = p.null[i]
		if p.val[i] {
			out.i[i] = 1
		} else {
			out.i[i] = 0
		}
	}
}

// isNullPred implements IS [NOT] NULL; the output is never NULL.
func isNullPred(v *vec, out *pvec, sel []int32, not bool) {
	for _, i := range sel {
		out.null[i] = false
		out.val[i] = v.isNullAt(i) != not
	}
}

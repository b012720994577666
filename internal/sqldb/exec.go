package sqldb

import (
	"fmt"
	"strings"

	"bestpeer/internal/sqlval"
)

// Stats records the physical work a statement performed. The engines
// feed these numbers into the virtual-time cost model (disk bytes read,
// result bytes produced) and the pay-as-you-go billing formulas.
type Stats struct {
	RowsScanned   int64
	BytesScanned  int64
	IndexUsed     bool
	RowsReturned  int64
	BytesReturned int64
}

// Add accumulates another stats record into s.
func (s *Stats) Add(o Stats) {
	s.RowsScanned += o.RowsScanned
	s.BytesScanned += o.BytesScanned
	s.IndexUsed = s.IndexUsed || o.IndexUsed
	s.RowsReturned += o.RowsReturned
	s.BytesReturned += o.BytesReturned
}

// Result is the outcome of a statement: column names and rows for
// SELECT, affected-row counts (in RowsReturned) for writes.
type Result struct {
	Columns []string
	Rows    []sqlval.Row
	Stats   Stats
}

// binding locates one FROM-clause table inside the joined row layout.
type binding struct {
	alias  string
	schema *Schema
	offset int
}

// frame is the name-resolution scope of a SELECT: the ordered bindings
// of its FROM clause.
type frame struct {
	bindings []binding
	width    int
}

func (f *frame) push(alias string, schema *Schema) {
	f.bindings = append(f.bindings, binding{alias: alias, schema: schema, offset: f.width})
	f.width += len(schema.Columns)
}

// resolve maps a column reference to its position in the joined row.
func (f *frame) resolve(ref *ColumnRef) (int, error) {
	if ref.Table != "" {
		for _, b := range f.bindings {
			if strings.EqualFold(b.alias, ref.Table) {
				ci := b.schema.ColumnIndex(ref.Column)
				if ci < 0 {
					return -1, fmt.Errorf("sqldb: no column %s in %s", ref.Column, ref.Table)
				}
				return b.offset + ci, nil
			}
		}
		return -1, fmt.Errorf("sqldb: unknown table %s", ref.Table)
	}
	found := -1
	for _, b := range f.bindings {
		if ci := b.schema.ColumnIndex(ref.Column); ci >= 0 {
			if found >= 0 {
				return -1, fmt.Errorf("sqldb: ambiguous column %s", ref.Column)
			}
			found = b.offset + ci
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("sqldb: unknown column %s", ref.Column)
	}
	return found, nil
}

// resolvable reports whether every column in e resolves in the frame.
func (f *frame) resolvable(e Expr) bool {
	for _, ref := range ColumnsIn(e) {
		if _, err := f.resolve(ref); err != nil {
			return false
		}
	}
	return true
}

// evalExpr evaluates a non-aggregate expression against a joined row.
func evalExpr(f *frame, e Expr, row sqlval.Row) (sqlval.Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *ColumnRef:
		pos, err := f.resolve(x)
		if err != nil {
			return sqlval.Null(), err
		}
		return row[pos], nil
	case *Binary:
		switch x.Op {
		case "AND", "OR":
			lv, err := evalPred(f, x.L, row)
			if err != nil {
				return sqlval.Null(), err
			}
			if x.Op == "AND" && !lv {
				return sqlval.Int(0), nil
			}
			if x.Op == "OR" && lv {
				return sqlval.Int(1), nil
			}
			rv, err := evalPred(f, x.R, row)
			if err != nil {
				return sqlval.Null(), err
			}
			return boolVal(rv), nil
		case "+", "-", "*", "/":
			lv, err := evalExpr(f, x.L, row)
			if err != nil {
				return sqlval.Null(), err
			}
			rv, err := evalExpr(f, x.R, row)
			if err != nil {
				return sqlval.Null(), err
			}
			switch x.Op {
			case "+":
				return sqlval.Add(lv, rv), nil
			case "-":
				return sqlval.Sub(lv, rv), nil
			case "*":
				return sqlval.Mul(lv, rv), nil
			default:
				return sqlval.Div(lv, rv), nil
			}
		default: // comparison
			lv, err := evalExpr(f, x.L, row)
			if err != nil {
				return sqlval.Null(), err
			}
			rv, err := evalExpr(f, x.R, row)
			if err != nil {
				return sqlval.Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return sqlval.Null(), nil // SQL unknown
			}
			return boolVal(compareCoerced(lv, rv, x.Op)), nil
		}
	case *Unary:
		v, err := evalExpr(f, x.E, row)
		if err != nil {
			return sqlval.Null(), err
		}
		if x.Op == "NOT" {
			if v.IsNull() {
				return sqlval.Null(), nil
			}
			return boolVal(!truthy(v)), nil
		}
		return sqlval.Sub(sqlval.Int(0), v), nil
	case *Between:
		v, err := evalExpr(f, x.E, row)
		if err != nil {
			return sqlval.Null(), err
		}
		lo, err := evalExpr(f, x.Lo, row)
		if err != nil {
			return sqlval.Null(), err
		}
		hi, err := evalExpr(f, x.Hi, row)
		if err != nil {
			return sqlval.Null(), err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return sqlval.Null(), nil
		}
		in := compareCoerced(v, lo, ">=") && compareCoerced(v, hi, "<=")
		return boolVal(in != x.Not), nil
	case *InList:
		v, err := evalExpr(f, x.E, row)
		if err != nil {
			return sqlval.Null(), err
		}
		if v.IsNull() {
			return sqlval.Null(), nil
		}
		for _, item := range x.List {
			iv, err := evalExpr(f, item, row)
			if err != nil {
				return sqlval.Null(), err
			}
			if !iv.IsNull() && compareCoerced(v, iv, "=") {
				return boolVal(!x.Not), nil
			}
		}
		return boolVal(x.Not), nil
	case *IsNull:
		v, err := evalExpr(f, x.E, row)
		if err != nil {
			return sqlval.Null(), err
		}
		return boolVal(v.IsNull() != x.Not), nil
	case *FuncCall:
		if isAggregateName(x.Name) {
			return sqlval.Null(), fmt.Errorf("sqldb: aggregate %s outside aggregation context", x.Name)
		}
		return sqlval.Null(), fmt.Errorf("sqldb: unknown function %s", x.Name)
	default:
		return sqlval.Null(), fmt.Errorf("sqldb: cannot evaluate %T", e)
	}
}

// evalPred evaluates e as a predicate; SQL unknown (NULL) is false.
func evalPred(f *frame, e Expr, row sqlval.Row) (bool, error) {
	v, err := evalExpr(f, e, row)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	return truthy(v), nil
}

func truthy(v sqlval.Value) bool {
	switch v.Kind() {
	case sqlval.KindInt:
		return v.AsInt() != 0
	case sqlval.KindFloat:
		return v.AsFloat() != 0
	default:
		return !v.IsNull()
	}
}

func boolVal(b bool) sqlval.Value {
	if b {
		return sqlval.Int(1)
	}
	return sqlval.Int(0)
}

// compareCoerced compares values under op, coercing a string literal to
// a date when compared against a DATE column (so WHERE d > '1998-09-01'
// works without the DATE keyword).
func compareCoerced(a, b sqlval.Value, op string) bool {
	if a.Kind() == sqlval.KindDate && b.Kind() == sqlval.KindString {
		if d, err := sqlval.ParseDate(b.AsString()); err == nil {
			b = d
		}
	}
	if b.Kind() == sqlval.KindDate && a.Kind() == sqlval.KindString {
		if d, err := sqlval.ParseDate(a.AsString()); err == nil {
			a = d
		}
	}
	c := sqlval.Compare(a, b)
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	default:
		return false
	}
}

// literalOf returns the constant value of e if it is a literal (possibly
// a string that should coerce to the column's kind at comparison time).
func literalOf(e Expr) (sqlval.Value, bool) {
	lit, ok := e.(*Literal)
	if !ok {
		return sqlval.Null(), false
	}
	return lit.Val, true
}

// accessPath describes how to fetch one table's rows: either a full scan
// or an index equality/range probe discovered from the conjuncts.
type accessPath struct {
	index *Index
	eq    sqlval.Value
	useEq bool
	lo    sqlval.Value
	hi    sqlval.Value
	loInc bool
	hiInc bool
}

// chooseAccessPath inspects the single-table conjuncts and selects the
// best index probe: equality beats range, range beats full scan.
func chooseAccessPath(t *Table, alias string, conjuncts []Expr) accessPath {
	var best accessPath
	f := &frame{}
	f.push(alias, t.Schema())
	for _, c := range conjuncts {
		var col string
		var op string
		var val sqlval.Value
		switch x := c.(type) {
		case *Binary:
			ref, okL := x.L.(*ColumnRef)
			lit, okR := literalOf(x.R)
			if okL && okR {
				col, op, val = ref.Column, x.Op, lit
			} else if ref2, ok2 := x.R.(*ColumnRef); ok2 {
				if lit2, okL2 := literalOf(x.L); okL2 {
					col, val = ref2.Column, lit2
					op = flipOp(x.Op)
				}
			}
			if col == "" {
				continue
			}
			if _, err := f.resolve(&ColumnRef{Column: col}); err != nil {
				continue
			}
			idx := t.IndexOn(col)
			if idx == nil {
				continue
			}
			val = coerceForColumn(t, col, val)
			switch op {
			case "=":
				best = accessPath{index: idx, eq: val, useEq: true}
				return best
			case ">":
				best = mergeRange(best, idx, val, sqlval.Null(), false, false)
			case ">=":
				best = mergeRange(best, idx, val, sqlval.Null(), true, false)
			case "<":
				best = mergeRange(best, idx, sqlval.Null(), val, false, false)
			case "<=":
				best = mergeRange(best, idx, sqlval.Null(), val, false, true)
			}
		case *Between:
			ref, ok := x.E.(*ColumnRef)
			if !ok || x.Not {
				continue
			}
			lo, okLo := literalOf(x.Lo)
			hi, okHi := literalOf(x.Hi)
			if !okLo || !okHi {
				continue
			}
			if _, err := f.resolve(&ColumnRef{Column: ref.Column}); err != nil {
				continue
			}
			idx := t.IndexOn(ref.Column)
			if idx == nil {
				continue
			}
			lo = coerceForColumn(t, ref.Column, lo)
			hi = coerceForColumn(t, ref.Column, hi)
			best = mergeRange(best, idx, lo, hi, true, true)
		}
	}
	return best
}

// coerceForColumn converts a literal to the column's declared kind so
// index probes compare correctly (dates given as strings, ints vs floats).
func coerceForColumn(t *Table, col string, v sqlval.Value) sqlval.Value {
	ci := t.Schema().ColumnIndex(col)
	if ci < 0 {
		return v
	}
	cv, err := coerce(v, t.Schema().Columns[ci].Kind)
	if err != nil {
		return v
	}
	return cv
}

// mergeRange tightens the access path with a new bound on idx. Bounds on
// a different index than the current one are kept only if no path exists
// yet (one index per probe).
func mergeRange(cur accessPath, idx *Index, lo, hi sqlval.Value, loInc, hiInc bool) accessPath {
	if cur.index != nil && cur.index != idx {
		return cur
	}
	if cur.index == nil {
		return accessPath{index: idx, lo: lo, hi: hi, loInc: loInc, hiInc: hiInc}
	}
	if !lo.IsNull() && (cur.lo.IsNull() || sqlval.Compare(lo, cur.lo) > 0) {
		cur.lo, cur.loInc = lo, loInc
	}
	if !hi.IsNull() && (cur.hi.IsNull() || sqlval.Compare(hi, cur.hi) < 0) {
		cur.hi, cur.hiInc = hi, hiInc
	}
	return cur
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

// splitConjuncts partitions the WHERE conjuncts into per-table filters
// (all columns resolve within a single FROM entry) and cross-table
// conditions.
func splitConjuncts(where Expr, refs []TableRef, schemas []*Schema) (perTable [][]Expr, cross []Expr) {
	perTable = make([][]Expr, len(refs))
	for _, c := range Conjuncts(where) {
		placed := false
		for i, ref := range refs {
			f := &frame{}
			f.push(ref.Alias, schemas[i])
			if f.resolvable(c) {
				perTable[i] = append(perTable[i], c)
				placed = true
				break
			}
		}
		if !placed {
			cross = append(cross, c)
		}
	}
	return perTable, cross
}

// equiJoinKeys finds equality conjuncts joining the accumulated frame
// (left) with the table being added (right), returning the paired key
// expressions and the remaining unused conditions.
func equiJoinKeys(conds []Expr, left *frame, right *frame) (lkeys, rkeys []Expr, rest []Expr) {
	for _, c := range conds {
		b, ok := c.(*Binary)
		if !ok || b.Op != "=" {
			rest = append(rest, c)
			continue
		}
		switch {
		case left.resolvable(b.L) && right.resolvable(b.R):
			lkeys = append(lkeys, b.L)
			rkeys = append(rkeys, b.R)
		case left.resolvable(b.R) && right.resolvable(b.L):
			lkeys = append(lkeys, b.R)
			rkeys = append(rkeys, b.L)
		default:
			rest = append(rest, c)
		}
	}
	return lkeys, rkeys, rest
}

// distinctFilter deduplicates output rows for SELECT DISTINCT; a nil
// filter admits everything.
type distinctFilter struct {
	seen map[string]bool
}

func newDistinctFilter(enabled bool) *distinctFilter {
	if !enabled {
		return nil
	}
	return &distinctFilter{seen: make(map[string]bool)}
}

// admit reports whether the row should be emitted, recording it.
func (d *distinctFilter) admit(row sqlval.Row) bool {
	if d == nil {
		return true
	}
	key := row.String()
	if d.seen[key] {
		return false
	}
	d.seen[key] = true
	return true
}

func orderByAlias(e Expr, cols []string, out sqlval.Row) (sqlval.Value, error) {
	ref, ok := e.(*ColumnRef)
	if !ok || ref.Table != "" {
		return sqlval.Null(), fmt.Errorf("sqldb: cannot order by %s", e)
	}
	for i, c := range cols {
		if strings.EqualFold(c, ref.Column) {
			return out[i], nil
		}
	}
	return sqlval.Null(), fmt.Errorf("sqldb: cannot order by %s", e)
}

func lessKeys(a, b sqlval.Row, order []OrderItem) bool {
	for i := range order {
		c := sqlval.Compare(a[i], b[i])
		if c == 0 {
			continue
		}
		if order[i].Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// expandItems resolves the SELECT list into output column names and the
// expressions producing them (stars expanded from the frame).
func expandItems(f *frame, items []SelectItem) ([]string, []Expr, error) {
	var cols []string
	var exprs []Expr
	for _, item := range items {
		if item.Star {
			for _, b := range f.bindings {
				if item.Table != "" && !strings.EqualFold(item.Table, b.alias) {
					continue
				}
				for _, c := range b.schema.Columns {
					cols = append(cols, c.Name)
					exprs = append(exprs, &ColumnRef{Table: b.alias, Column: c.Name})
				}
			}
			continue
		}
		name := item.Alias
		if name == "" {
			if ref, ok := item.Expr.(*ColumnRef); ok {
				name = ref.Column
			} else {
				name = item.Expr.String()
			}
		}
		cols = append(cols, name)
		exprs = append(exprs, item.Expr)
	}
	return cols, exprs, nil
}

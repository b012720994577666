package sqldb

import (
	"fmt"
	"strings"

	"bestpeer/internal/sqlval"
)

// This file exports the pieces of the local executor that the
// distributed query engines (BestPeer++'s basic/parallel/MapReduce
// engines and the HadoopDB baseline) reuse: name resolution over joined
// rows, conjunct placement, equi-join key extraction, and final
// projection/aggregation over rows fetched from remote peers.

// Binding names one table occurrence inside a joined-row layout.
type Binding struct {
	Alias  string
	Schema *Schema
}

func frameOf(bindings []Binding) *frame {
	f := &frame{}
	for _, b := range bindings {
		f.push(b.Alias, b.Schema)
	}
	return f
}

// Resolvable reports whether every column of e resolves in the bindings.
func Resolvable(bindings []Binding, e Expr) bool {
	return frameOf(bindings).resolvable(e)
}

// ProjectRows applies the SELECT list, grouping/aggregation, HAVING,
// ORDER BY, and LIMIT of stmt to already-joined, already-filtered rows.
// The engines call it at the query submitting peer after assembling the
// distributed intermediate result; it runs the same projection programs
// as a local SELECT's tail. A row whose value contradicts the kind its
// binding's schema declares is an error.
func ProjectRows(stmt *SelectStmt, bindings []Binding, rows []sqlval.Row) (*Result, error) {
	f := frameOf(bindings)
	pp, err := newProjPlan(f, f, stmt)
	if err != nil {
		return nil, err
	}
	return pp.runRows(rows)
}

// CompiledExpr is a closure-compiled expression over a joined row
// layout: column references are resolved to offsets once at compile
// time instead of per row.
type CompiledExpr func(row sqlval.Row) (sqlval.Value, error)

// CompiledPred is a closure-compiled predicate; SQL unknown is false.
type CompiledPred func(row sqlval.Row) (bool, error)

// CompileExprOver compiles e for repeated evaluation over rows laid out
// by bindings. An expression that does not compile (unknown column,
// aggregate outside context) yields a closure returning that compile
// error on every row.
func CompileExprOver(bindings []Binding, e Expr) CompiledExpr {
	fn, err := compileExpr(frameOf(bindings), e)
	if err != nil {
		return func(sqlval.Row) (sqlval.Value, error) { return sqlval.Null(), err }
	}
	return CompiledExpr(fn)
}

// CompilePredicates fuses conds into one compiled conjunction over the
// bindings' row layout; rows failing any conjunct are rejected. Like
// CompileExprOver, a compile error surfaces from the returned closure.
func CompilePredicates(bindings []Binding, conds []Expr) CompiledPred {
	fn, err := compileFilter(frameOf(bindings), conds)
	if err != nil {
		return func(sqlval.Row) (bool, error) { return false, err }
	}
	if fn == nil {
		return func(sqlval.Row) (bool, error) { return true, nil }
	}
	return CompiledPred(fn)
}

// CompileJoinKey compiles a row's join-key column set once, returning
// the key hasher (same fold as HashKeyOffsets) plus per-key evaluators
// for equality checks. A key that does not compile fails, as under
// CompileExprOver, from its evaluator and from the hasher.
func CompileJoinKey(bindings []Binding, keys []Expr) (hash func(sqlval.Row) (uint64, error), evals []CompiledExpr) {
	evals = make([]CompiledExpr, len(keys))
	fns := make([]compiledExpr, len(keys))
	for i, k := range keys {
		evals[i] = CompileExprOver(bindings, k)
		fns[i] = compiledExpr(evals[i])
	}
	return compileHash(fns), evals
}

// JoinKeyOffsets resolves join keys to plain column offsets over the
// bindings' row layout. It succeeds only when every key is a bare column
// reference — the common foreign-key join shape — letting callers hash
// and compare by direct row indexing with no closure dispatch and no
// per-key error path. ok=false means at least one key is a computed
// expression; callers keep the compiled-closure path.
func JoinKeyOffsets(bindings []Binding, keys []Expr) (offs []int, ok bool) {
	if len(keys) == 0 {
		return nil, false
	}
	f := frameOf(bindings)
	offs = make([]int, len(keys))
	for i, k := range keys {
		cr, isRef := k.(*ColumnRef)
		if !isRef {
			return nil, false
		}
		off, err := f.resolve(cr)
		if err != nil {
			return nil, false
		}
		offs[i] = off
	}
	return offs, true
}

// HashKeyOffsets folds the key columns at offs with the same scheme as
// CompileJoinKey's hasher, so offset-resolved and expression-evaluated
// keys hash identically.
func HashKeyOffsets(row sqlval.Row, offs []int) uint64 {
	var h uint64 = 1469598103934665603
	for _, off := range offs {
		h = h*1099511628211 ^ row[off].Hash()
	}
	return h
}

// SplitConjunctsPerTable partitions WHERE conjuncts into per-table
// filters (fully resolvable against one FROM entry) and cross-table
// conditions, in FROM order.
func SplitConjunctsPerTable(where Expr, refs []TableRef, schemas []*Schema) (perTable [][]Expr, cross []Expr) {
	return splitConjuncts(where, refs, schemas)
}

// EquiJoinConds finds equality conjuncts linking the left bindings to
// the right bindings, returning paired key expressions (left side,
// right side) plus the conditions it could not use.
func EquiJoinConds(conds []Expr, left, right []Binding) (lkeys, rkeys []Expr, rest []Expr) {
	return equiJoinKeys(conds, frameOf(left), frameOf(right))
}

// NeededColumns lists the columns of one FROM entry referenced anywhere
// in the statement (select list, WHERE, GROUP BY, HAVING, ORDER BY).
// The engines push exactly this projection down to data owner peers. A
// star select returns every column.
func NeededColumns(stmt *SelectStmt, ref TableRef, schema *Schema) []string {
	all := func() []string { return schema.ColumnNames() }
	needed := make(map[string]bool)
	addRef := func(cr *ColumnRef) bool {
		if cr.Table != "" && !strings.EqualFold(cr.Table, ref.Alias) {
			return true
		}
		ci := schema.ColumnIndex(cr.Column)
		if ci < 0 {
			// Unqualified reference to a column of another table.
			if cr.Table == "" {
				return true
			}
			return false
		}
		needed[strings.ToLower(schema.Columns[ci].Name)] = true
		return true
	}
	var exprs []Expr
	for _, item := range stmt.Items {
		if item.Star && (item.Table == "" || strings.EqualFold(item.Table, ref.Alias)) {
			return all()
		}
		if !item.Star {
			exprs = append(exprs, item.Expr)
		}
	}
	exprs = append(exprs, stmt.Where, stmt.Having)
	exprs = append(exprs, stmt.GroupBy...)
	for _, o := range stmt.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		for _, cr := range ColumnsIn(e) {
			if !addRef(cr) {
				return all()
			}
		}
	}
	out := make([]string, 0, len(needed))
	for _, c := range schema.Columns {
		if needed[strings.ToLower(c.Name)] {
			out = append(out, c.Name)
		}
	}
	return out
}

// SubSchema builds the reduced schema produced by projecting the listed
// columns of a table (the shape of a pushed-down subquery result).
func SubSchema(schema *Schema, columns []string) (*Schema, error) {
	out := &Schema{Table: schema.Table}
	for _, c := range columns {
		ci := schema.ColumnIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("sqldb: no column %s in %s", c, schema.Table)
		}
		out.Columns = append(out.Columns, schema.Columns[ci])
	}
	return out, nil
}

// BuildSubQuery constructs the single-table SELECT pushed down to a data
// owner peer: the needed columns of one table under its per-table
// conjuncts.
func BuildSubQuery(table TableRef, columns []string, conjuncts []Expr) *SelectStmt {
	stmt := &SelectStmt{
		From:  []TableRef{{Table: table.Table, Alias: table.Table}},
		Where: AndAll(stripQualifiers(conjuncts, table.Alias)),
		Limit: -1,
	}
	for _, c := range columns {
		stmt.Items = append(stmt.Items, SelectItem{Expr: &ColumnRef{Column: c}})
	}
	return stmt
}

// stripQualifiers rewrites alias-qualified column references to bare
// ones so a subquery extracted from a join parses at a peer that only
// sees the single table.
func stripQualifiers(conjuncts []Expr, alias string) []Expr {
	out := make([]Expr, 0, len(conjuncts))
	for _, c := range conjuncts {
		out = append(out, rewriteRefs(c, func(cr *ColumnRef) Expr {
			if strings.EqualFold(cr.Table, alias) {
				return &ColumnRef{Column: cr.Column}
			}
			return cr
		}))
	}
	return out
}

// rewriteRefs rebuilds an expression applying fn to every column
// reference.
func rewriteRefs(e Expr, fn func(*ColumnRef) Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *ColumnRef:
		return fn(x)
	case *Literal:
		return x
	case *Binary:
		return &Binary{Op: x.Op, L: rewriteRefs(x.L, fn), R: rewriteRefs(x.R, fn)}
	case *Unary:
		return &Unary{Op: x.Op, E: rewriteRefs(x.E, fn)}
	case *FuncCall:
		out := &FuncCall{Name: x.Name, Star: x.Star}
		for _, a := range x.Args {
			out.Args = append(out.Args, rewriteRefs(a, fn))
		}
		return out
	case *Between:
		return &Between{E: rewriteRefs(x.E, fn), Lo: rewriteRefs(x.Lo, fn), Hi: rewriteRefs(x.Hi, fn), Not: x.Not}
	case *InList:
		out := &InList{E: rewriteRefs(x.E, fn), Not: x.Not}
		for _, v := range x.List {
			out.List = append(out.List, rewriteRefs(v, fn))
		}
		return out
	case *IsNull:
		return &IsNull{E: rewriteRefs(x.E, fn), Not: x.Not}
	default:
		return e
	}
}

// RewriteRefs exposes expression rewriting to the engines (used by
// aggregate decomposition).
func RewriteRefs(e Expr, fn func(*ColumnRef) Expr) Expr { return rewriteRefs(e, fn) }

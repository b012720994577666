package engine

import (
	"fmt"
	"strings"

	"bestpeer/internal/sqldb"
	"bestpeer/internal/sqlval"
)

// Decomposition is a two-phase rewrite of an aggregate query: the
// Partial statement is pushed to every data owner peer (computing
// per-peer partial aggregates over its horizontal partition), and the
// Merge statement combines the concatenated partial rows at the query
// submitting peer. This is how the basic engine evaluates Q2-style
// queries — "the partial aggregation results are sent back to the query
// submitting peer where the final aggregation is performed" (§6.1.7) —
// and how the MapReduce engine's reducers merge map-side partials.
type Decomposition struct {
	Partial       *sqldb.SelectStmt
	Merge         *sqldb.SelectStmt
	PartialSchema *sqldb.Schema
	// PartialMergeOps gives, per partial column, how two partial rows of
	// the same group combine: "key" (group columns, identical within a
	// group), "SUM", "MIN", or "MAX". The MapReduce engine's reducers
	// use it to merge partials without widening them.
	PartialMergeOps []string
}

// MergePartialRows folds partial rows of one group into a single partial
// row using PartialMergeOps.
func (d *Decomposition) MergePartialRows(rows []sqlval.Row) sqlval.Row {
	if len(rows) == 0 {
		return nil
	}
	out := rows[0].Clone()
	for _, row := range rows[1:] {
		for i, op := range d.PartialMergeOps {
			switch op {
			case "SUM":
				switch {
				case row[i].IsNull():
					// NULL partials contribute nothing.
				case out[i].IsNull():
					out[i] = row[i]
				default:
					out[i] = sqlval.Add(out[i], row[i])
				}
			case "MIN":
				if out[i].IsNull() || (!row[i].IsNull() && sqlval.Less(row[i], out[i])) {
					out[i] = row[i]
				}
			case "MAX":
				if out[i].IsNull() || (!row[i].IsNull() && sqlval.Less(out[i], row[i])) {
					out[i] = row[i]
				}
			}
		}
	}
	return out
}

// DecomposeAggregates rewrites stmt. It returns ok=false when the
// statement has no aggregation (plain selects ship rows, not partials).
// schemaOf resolves global table schemas for result-kind inference.
func DecomposeAggregates(stmt *sqldb.SelectStmt, schemaOf func(string) *sqldb.Schema) (*Decomposition, bool, error) {
	grouped := len(stmt.GroupBy) > 0 || stmt.Having != nil
	for _, item := range stmt.Items {
		if !item.Star && sqldb.HasAggregate(item.Expr) {
			grouped = true
		}
	}
	if !grouped {
		return nil, false, nil
	}
	for _, item := range stmt.Items {
		if item.Star {
			return nil, false, fmt.Errorf("engine: SELECT * cannot combine with aggregation decomposition")
		}
	}

	var bindings []sqldb.Binding
	for _, ref := range stmt.From {
		s := schemaOf(ref.Table)
		if s == nil {
			return nil, false, fmt.Errorf("engine: unknown table %s", ref.Table)
		}
		bindings = append(bindings, sqldb.Binding{Alias: ref.Alias, Schema: s})
	}

	d := &Decomposition{
		Partial: &sqldb.SelectStmt{
			From:    stmt.From,
			Where:   stmt.Where,
			GroupBy: stmt.GroupBy,
			Limit:   -1,
		},
		Merge: &sqldb.SelectStmt{
			From:  []sqldb.TableRef{{Table: "partial", Alias: "partial"}},
			Limit: stmt.Limit,
		},
		PartialSchema: &sqldb.Schema{Table: "partial"},
	}

	// Partial columns: one per GROUP BY expression (g0, g1, ...) plus
	// decomposed aggregate parts (a0, a1, ...).
	groupAlias := make(map[string]string) // expr string -> partial column
	for i, g := range stmt.GroupBy {
		name := fmt.Sprintf("g%d", i)
		groupAlias[g.String()] = name
		d.Partial.Items = append(d.Partial.Items, sqldb.SelectItem{Expr: g, Alias: name})
		d.PartialSchema.Columns = append(d.PartialSchema.Columns,
			sqldb.Column{Name: name, Kind: inferKind(g, bindings)})
		d.PartialMergeOps = append(d.PartialMergeOps, "key")
		d.Merge.GroupBy = append(d.Merge.GroupBy, &sqldb.ColumnRef{Column: name})
	}

	// mergeExprFor builds the merge-side expression for one aggregate
	// call, appending the partial columns it needs.
	aggMergeExpr := make(map[string]sqldb.Expr) // agg call string -> merge expr
	nextAgg := 0
	addPartial := func(e sqldb.Expr, mergeOp string) string {
		name := fmt.Sprintf("a%d", nextAgg)
		nextAgg++
		d.Partial.Items = append(d.Partial.Items, sqldb.SelectItem{Expr: e, Alias: name})
		d.PartialSchema.Columns = append(d.PartialSchema.Columns, sqldb.Column{Name: name, Kind: inferKind(e, bindings)})
		d.PartialMergeOps = append(d.PartialMergeOps, mergeOp)
		return name
	}
	mergeExprFor := func(fc *sqldb.FuncCall) (sqldb.Expr, error) {
		key := fc.String()
		if e, ok := aggMergeExpr[key]; ok {
			return e, nil
		}
		var out sqldb.Expr
		switch strings.ToUpper(fc.Name) {
		case "COUNT":
			col := addPartial(fc, "SUM")
			out = &sqldb.FuncCall{Name: "SUM", Args: []sqldb.Expr{&sqldb.ColumnRef{Column: col}}}
		case "SUM":
			col := addPartial(fc, "SUM")
			out = &sqldb.FuncCall{Name: "SUM", Args: []sqldb.Expr{&sqldb.ColumnRef{Column: col}}}
		case "MIN", "MAX":
			col := addPartial(fc, strings.ToUpper(fc.Name))
			out = &sqldb.FuncCall{Name: strings.ToUpper(fc.Name), Args: []sqldb.Expr{&sqldb.ColumnRef{Column: col}}}
		case "AVG":
			sumCol := addPartial(&sqldb.FuncCall{Name: "SUM", Args: fc.Args}, "SUM")
			cntCol := addPartial(&sqldb.FuncCall{Name: "COUNT", Args: fc.Args}, "SUM")
			out = &sqldb.Binary{
				Op: "/",
				L:  &sqldb.FuncCall{Name: "SUM", Args: []sqldb.Expr{&sqldb.ColumnRef{Column: sumCol}}},
				R:  &sqldb.FuncCall{Name: "SUM", Args: []sqldb.Expr{&sqldb.ColumnRef{Column: cntCol}}},
			}
		default:
			return nil, fmt.Errorf("engine: cannot decompose aggregate %s", fc.Name)
		}
		aggMergeExpr[key] = out
		return out, nil
	}

	// rewrite maps an original output expression to its merge-side form.
	var rewrite func(e sqldb.Expr) (sqldb.Expr, error)
	rewrite = func(e sqldb.Expr) (sqldb.Expr, error) {
		if e == nil {
			return nil, nil
		}
		if alias, ok := groupAlias[e.String()]; ok {
			return &sqldb.ColumnRef{Column: alias}, nil
		}
		switch x := e.(type) {
		case *sqldb.FuncCall:
			if sqldb.HasAggregate(x) {
				return mergeExprFor(x)
			}
			return x, nil
		case *sqldb.Binary:
			l, err := rewrite(x.L)
			if err != nil {
				return nil, err
			}
			r, err := rewrite(x.R)
			if err != nil {
				return nil, err
			}
			return &sqldb.Binary{Op: x.Op, L: l, R: r}, nil
		case *sqldb.Unary:
			inner, err := rewrite(x.E)
			if err != nil {
				return nil, err
			}
			return &sqldb.Unary{Op: x.Op, E: inner}, nil
		case *sqldb.Literal:
			return x, nil
		case *sqldb.ColumnRef:
			// A bare column that is not a GROUP BY expression: ship it as
			// an extra partial column (sample-row semantics, matching the
			// local executor's permissive grouping).
			col := addPartial(&sqldb.FuncCall{Name: "MIN", Args: []sqldb.Expr{x}}, "MIN")
			return &sqldb.FuncCall{Name: "MIN", Args: []sqldb.Expr{&sqldb.ColumnRef{Column: col}}}, nil
		default:
			return nil, fmt.Errorf("engine: cannot rewrite %T for merge", e)
		}
	}

	for _, item := range stmt.Items {
		m, err := rewrite(item.Expr)
		if err != nil {
			return nil, false, err
		}
		alias := item.Alias
		if alias == "" {
			if ref, ok := item.Expr.(*sqldb.ColumnRef); ok {
				alias = ref.Column
			} else {
				alias = item.Expr.String()
			}
		}
		d.Merge.Items = append(d.Merge.Items, sqldb.SelectItem{Expr: m, Alias: alias})
	}
	if stmt.Having != nil {
		m, err := rewrite(stmt.Having)
		if err != nil {
			return nil, false, err
		}
		d.Merge.Having = m
	}
	for _, o := range stmt.OrderBy {
		m, err := rewrite(o.Expr)
		if err != nil {
			// ORDER BY may reference a select alias; pass it through.
			m = o.Expr
		}
		d.Merge.OrderBy = append(d.Merge.OrderBy, sqldb.OrderItem{Expr: m, Desc: o.Desc})
	}
	return d, true, nil
}

// inferKind gives the kind every non-NULL value of e has when the local
// executor evaluates it. The partial schema declares its columns with
// it, and the merge at the query submitting peer rejects a partial row
// whose value contradicts its column's declaration.
func inferKind(e sqldb.Expr, bindings []sqldb.Binding) sqlval.Kind {
	switch x := e.(type) {
	case *sqldb.ColumnRef:
		for _, b := range bindings {
			if x.Table != "" && !strings.EqualFold(x.Table, b.Alias) {
				continue
			}
			if ci := b.Schema.ColumnIndex(x.Column); ci >= 0 {
				return b.Schema.Columns[ci].Kind
			}
		}
		return sqlval.KindFloat
	case *sqldb.Literal:
		return x.Val.Kind()
	case *sqldb.FuncCall:
		switch strings.ToUpper(x.Name) {
		case "COUNT":
			return sqlval.KindInt
		case "AVG":
			return sqlval.KindFloat
		case "SUM":
			// A sum stays INT only over INT inputs; dates, floats and
			// strings all accumulate as FLOAT.
			if len(x.Args) > 0 && inferKind(x.Args[0], bindings) == sqlval.KindInt {
				return sqlval.KindInt
			}
			return sqlval.KindFloat
		}
		if len(x.Args) > 0 { // MIN, MAX: the argument's own kind
			return inferKind(x.Args[0], bindings)
		}
		return sqlval.KindFloat
	case *sqldb.Binary:
		switch x.Op {
		case "+", "-", "*":
			if inferKind(x.L, bindings) == sqlval.KindInt && inferKind(x.R, bindings) == sqlval.KindInt {
				return sqlval.KindInt
			}
			return sqlval.KindFloat
		case "/":
			return sqlval.KindFloat
		default: // comparisons, AND, OR yield 0/1
			return sqlval.KindInt
		}
	case *sqldb.Unary:
		if x.Op == "NOT" {
			return sqlval.KindInt
		}
		return inferKind(x.E, bindings)
	case *sqldb.Between, *sqldb.InList, *sqldb.IsNull:
		return sqlval.KindInt
	default:
		return sqlval.KindFloat
	}
}

package sqldb

import (
	"fmt"

	"bestpeer/internal/sqlval"
	"bestpeer/internal/telemetry"
)

// This file is the closure compiler for expressions: it walks an
// expression tree once per (statement, frame), resolving every column
// reference to its row offset up front, and returns flat closures that
// evaluate against rows with no per-row name resolution or tree walk.
// Semantics mirror evalExpr/evalPred exactly (SQL unknown-is-false
// predicates, AND/OR short circuit, date-string coercion), which the
// differential tests check. The closures serve the row-at-a-time
// callers: DELETE/UPDATE predicates and SET expressions, a join level's
// residual predicate, and the distributed engines (CompileExprOver,
// CompilePredicates, CompileJoinKey). SELECT scans and projections run
// the batch programs in batchcompile.go instead.

// compiledExpr evaluates an expression against a joined row.
type compiledExpr func(row sqlval.Row) (sqlval.Value, error)

// compiledPred evaluates a predicate against a joined row; SQL unknown
// (NULL) is false.
type compiledPred func(row sqlval.Row) (bool, error)

var exprCompiles = telemetry.Default.Counter("sqldb_expr_compiles_total")

// compileExpr compiles a top-level expression over f.
func compileExpr(f *frame, e Expr) (compiledExpr, error) {
	fn, err := compileNode(f, e)
	if err != nil {
		return nil, err
	}
	exprCompiles.Inc()
	return fn, nil
}

// compilePred compiles a top-level predicate over f.
func compilePred(f *frame, e Expr) (compiledPred, error) {
	fn, err := compilePredNode(f, e)
	if err != nil {
		return nil, err
	}
	exprCompiles.Inc()
	return fn, nil
}

// compileFilter fuses conjuncts into a single compiled predicate; a nil
// result means there is nothing to filter.
func compileFilter(f *frame, conjuncts []Expr) (compiledPred, error) {
	if len(conjuncts) == 0 {
		return nil, nil
	}
	if len(conjuncts) == 1 {
		return compilePred(f, conjuncts[0])
	}
	preds := make([]compiledPred, len(conjuncts))
	for i, c := range conjuncts {
		fn, err := compilePred(f, c)
		if err != nil {
			return nil, err
		}
		preds[i] = fn
	}
	return func(row sqlval.Row) (bool, error) {
		for _, p := range preds {
			ok, err := p(row)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}, nil
}

// compileNode mirrors evalExpr case by case.
func compileNode(f *frame, e Expr) (compiledExpr, error) {
	switch x := e.(type) {
	case *Literal:
		v := x.Val
		return func(sqlval.Row) (sqlval.Value, error) { return v, nil }, nil
	case *ColumnRef:
		pos, err := f.resolve(x)
		if err != nil {
			return nil, err
		}
		return func(row sqlval.Row) (sqlval.Value, error) { return row[pos], nil }, nil
	case *Binary:
		switch x.Op {
		case "AND", "OR":
			l, err := compilePredNode(f, x.L)
			if err != nil {
				return nil, err
			}
			r, err := compilePredNode(f, x.R)
			if err != nil {
				return nil, err
			}
			if x.Op == "AND" {
				return func(row sqlval.Row) (sqlval.Value, error) {
					lv, err := l(row)
					if err != nil {
						return sqlval.Null(), err
					}
					if !lv {
						return sqlval.Int(0), nil
					}
					rv, err := r(row)
					if err != nil {
						return sqlval.Null(), err
					}
					return boolVal(rv), nil
				}, nil
			}
			return func(row sqlval.Row) (sqlval.Value, error) {
				lv, err := l(row)
				if err != nil {
					return sqlval.Null(), err
				}
				if lv {
					return sqlval.Int(1), nil
				}
				rv, err := r(row)
				if err != nil {
					return sqlval.Null(), err
				}
				return boolVal(rv), nil
			}, nil
		case "+", "-", "*", "/":
			l, err := compileNode(f, x.L)
			if err != nil {
				return nil, err
			}
			r, err := compileNode(f, x.R)
			if err != nil {
				return nil, err
			}
			var arith func(a, b sqlval.Value) sqlval.Value
			switch x.Op {
			case "+":
				arith = sqlval.Add
			case "-":
				arith = sqlval.Sub
			case "*":
				arith = sqlval.Mul
			default:
				arith = sqlval.Div
			}
			return func(row sqlval.Row) (sqlval.Value, error) {
				lv, err := l(row)
				if err != nil {
					return sqlval.Null(), err
				}
				rv, err := r(row)
				if err != nil {
					return sqlval.Null(), err
				}
				return arith(lv, rv), nil
			}, nil
		default: // comparison
			l, err := compileNode(f, x.L)
			if err != nil {
				return nil, err
			}
			r, err := compileNode(f, x.R)
			if err != nil {
				return nil, err
			}
			cmp := comparatorFor(x.Op)
			return func(row sqlval.Row) (sqlval.Value, error) {
				lv, err := l(row)
				if err != nil {
					return sqlval.Null(), err
				}
				rv, err := r(row)
				if err != nil {
					return sqlval.Null(), err
				}
				if lv.IsNull() || rv.IsNull() {
					return sqlval.Null(), nil // SQL unknown
				}
				return boolVal(cmp(lv, rv)), nil
			}, nil
		}
	case *Unary:
		inner, err := compileNode(f, x.E)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return func(row sqlval.Row) (sqlval.Value, error) {
				v, err := inner(row)
				if err != nil {
					return sqlval.Null(), err
				}
				if v.IsNull() {
					return sqlval.Null(), nil
				}
				return boolVal(!truthy(v)), nil
			}, nil
		}
		return func(row sqlval.Row) (sqlval.Value, error) {
			v, err := inner(row)
			if err != nil {
				return sqlval.Null(), err
			}
			return sqlval.Sub(sqlval.Int(0), v), nil
		}, nil
	case *Between:
		ev, err := compileNode(f, x.E)
		if err != nil {
			return nil, err
		}
		lo, err := compileNode(f, x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := compileNode(f, x.Hi)
		if err != nil {
			return nil, err
		}
		ge := comparatorFor(">=")
		le := comparatorFor("<=")
		not := x.Not
		return func(row sqlval.Row) (sqlval.Value, error) {
			v, err := ev(row)
			if err != nil {
				return sqlval.Null(), err
			}
			lov, err := lo(row)
			if err != nil {
				return sqlval.Null(), err
			}
			hiv, err := hi(row)
			if err != nil {
				return sqlval.Null(), err
			}
			if v.IsNull() || lov.IsNull() || hiv.IsNull() {
				return sqlval.Null(), nil
			}
			in := ge(v, lov) && le(v, hiv)
			return boolVal(in != not), nil
		}, nil
	case *InList:
		ev, err := compileNode(f, x.E)
		if err != nil {
			return nil, err
		}
		items, err := compileNodeList(f, x.List)
		if err != nil {
			return nil, err
		}
		eq := comparatorFor("=")
		not := x.Not
		return func(row sqlval.Row) (sqlval.Value, error) {
			v, err := ev(row)
			if err != nil {
				return sqlval.Null(), err
			}
			if v.IsNull() {
				return sqlval.Null(), nil
			}
			for _, item := range items {
				iv, err := item(row)
				if err != nil {
					return sqlval.Null(), err
				}
				if !iv.IsNull() && eq(v, iv) {
					return boolVal(!not), nil
				}
			}
			return boolVal(not), nil
		}, nil
	case *IsNull:
		ev, err := compileNode(f, x.E)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(row sqlval.Row) (sqlval.Value, error) {
			v, err := ev(row)
			if err != nil {
				return sqlval.Null(), err
			}
			return boolVal(v.IsNull() != not), nil
		}, nil
	case *FuncCall:
		if isAggregateName(x.Name) {
			return nil, fmt.Errorf("sqldb: aggregate %s outside aggregation context", x.Name)
		}
		return nil, fmt.Errorf("sqldb: unknown function %s", x.Name)
	default:
		return nil, fmt.Errorf("sqldb: cannot evaluate %T", e)
	}
}

func compileNodeList(f *frame, exprs []Expr) ([]compiledExpr, error) {
	out := make([]compiledExpr, len(exprs))
	for i, e := range exprs {
		fn, err := compileNode(f, e)
		if err != nil {
			return nil, err
		}
		out[i] = fn
	}
	return out, nil
}

// compilePredNode compiles e for use in predicate position, shortcutting
// the Value boxing for the comparison and logical forms that dominate
// WHERE clauses. Any error or NULL from a subexpression yields exactly
// what evalPred over evalExpr would.
func compilePredNode(f *frame, e Expr) (compiledPred, error) {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case "AND", "OR":
			l, err := compilePredNode(f, x.L)
			if err != nil {
				return nil, err
			}
			r, err := compilePredNode(f, x.R)
			if err != nil {
				return nil, err
			}
			if x.Op == "AND" {
				return func(row sqlval.Row) (bool, error) {
					lv, err := l(row)
					if err != nil || !lv {
						return false, err
					}
					return r(row)
				}, nil
			}
			return func(row sqlval.Row) (bool, error) {
				lv, err := l(row)
				if err != nil || lv {
					return lv, err
				}
				return r(row)
			}, nil
		case "+", "-", "*", "/":
			// Arithmetic in predicate position: truthiness of the value.
		default:
			l, err := compileNode(f, x.L)
			if err != nil {
				return nil, err
			}
			r, err := compileNode(f, x.R)
			if err != nil {
				return nil, err
			}
			cmp := comparatorFor(x.Op)
			return func(row sqlval.Row) (bool, error) {
				lv, err := l(row)
				if err != nil {
					return false, err
				}
				rv, err := r(row)
				if err != nil {
					return false, err
				}
				if lv.IsNull() || rv.IsNull() {
					return false, nil // SQL unknown
				}
				return cmp(lv, rv), nil
			}, nil
		}
	case *IsNull:
		ev, err := compileNode(f, x.E)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(row sqlval.Row) (bool, error) {
			v, err := ev(row)
			if err != nil {
				return false, err
			}
			return v.IsNull() != not, nil
		}, nil
	}
	fn, err := compileNode(f, e)
	if err != nil {
		return nil, err
	}
	return func(row sqlval.Row) (bool, error) {
		v, err := fn(row)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			return false, nil
		}
		return truthy(v), nil
	}, nil
}

// comparatorFor returns a closure with compareCoerced's semantics for
// one fixed operator: the op dispatch happens once at compile time.
func comparatorFor(op string) func(a, b sqlval.Value) bool {
	var test func(c int) bool
	switch op {
	case "=":
		test = func(c int) bool { return c == 0 }
	case "<>":
		test = func(c int) bool { return c != 0 }
	case "<":
		test = func(c int) bool { return c < 0 }
	case "<=":
		test = func(c int) bool { return c <= 0 }
	case ">":
		test = func(c int) bool { return c > 0 }
	case ">=":
		test = func(c int) bool { return c >= 0 }
	default:
		return func(a, b sqlval.Value) bool { return false }
	}
	return func(a, b sqlval.Value) bool {
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
		return test(sqlval.Compare(a, b))
	}
}

// compileHash builds an FNV join-key hasher over compiled key
// evaluators; rows with equal keys hash equally (same fold as
// HashKeyOffsets).
func compileHash(keys []compiledExpr) func(row sqlval.Row) (uint64, error) {
	return func(row sqlval.Row) (uint64, error) {
		var h uint64 = 1469598103934665603
		for _, k := range keys {
			v, err := k(row)
			if err != nil {
				return 0, err
			}
			h = h*1099511628211 ^ v.Hash()
		}
		return h, nil
	}
}

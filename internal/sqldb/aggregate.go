package sqldb

import (
	"fmt"
	"strings"

	"bestpeer/internal/sqlval"
)

// aggState accumulates one aggregate function over a group.
type aggState struct {
	fn    string
	count int64
	sum   float64
	sumI  int64
	isInt bool
	min   sqlval.Value
	max   sqlval.Value
	seen  bool
}

func newAggState(fn string) *aggState {
	return &aggState{fn: fn, isInt: true}
}

func (a *aggState) add(v sqlval.Value) {
	if a.fn == "COUNT" {
		// COUNT(expr) counts non-NULL; COUNT(*) feeds a non-null marker.
		if !v.IsNull() {
			a.count++
		}
		return
	}
	if v.IsNull() {
		return
	}
	a.seen = true
	a.count++
	switch a.fn {
	case "SUM", "AVG":
		if v.Kind() == sqlval.KindInt {
			a.sumI += v.AsInt()
		} else {
			a.isInt = false
		}
		a.sum += v.AsFloat()
	case "MIN":
		if a.min.IsNull() || sqlval.Less(v, a.min) {
			a.min = v
		}
	case "MAX":
		if a.max.IsNull() || sqlval.Less(a.max, v) {
			a.max = v
		}
	}
}

func (a *aggState) result() sqlval.Value {
	switch a.fn {
	case "COUNT":
		return sqlval.Int(a.count)
	case "SUM":
		if !a.seen {
			return sqlval.Null()
		}
		if a.isInt {
			return sqlval.Int(a.sumI)
		}
		return sqlval.Float(a.sum)
	case "AVG":
		if !a.seen {
			return sqlval.Null()
		}
		return sqlval.Float(a.sum / float64(a.count))
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	default:
		return sqlval.Null()
	}
}

// aggCollector finds the distinct aggregate calls appearing anywhere in
// the SELECT list, HAVING, and ORDER BY, keyed by their SQL rendering.
type aggCollector struct {
	order []string
	calls map[string]*FuncCall
}

func collectAggregates(stmt *SelectStmt) *aggCollector {
	c := &aggCollector{calls: make(map[string]*FuncCall)}
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case nil:
		case *FuncCall:
			if isAggregateName(x.Name) {
				key := x.String()
				if _, ok := c.calls[key]; !ok {
					c.calls[key] = x
					c.order = append(c.order, key)
				}
				return // aggregates do not nest
			}
			for _, a := range x.Args {
				walk(a)
			}
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *Unary:
			walk(x.E)
		case *Between:
			walk(x.E)
			walk(x.Lo)
			walk(x.Hi)
		case *InList:
			walk(x.E)
			for _, v := range x.List {
				walk(v)
			}
		case *IsNull:
			walk(x.E)
		}
	}
	for _, item := range stmt.Items {
		if !item.Star {
			walk(item.Expr)
		}
	}
	walk(stmt.Having)
	for _, o := range stmt.OrderBy {
		walk(o.Expr)
	}
	return c
}

// group holds the accumulation state for one GROUP BY bucket.
type group struct {
	key    sqlval.Row
	sample sqlval.Row // first input row; evaluates non-aggregate refs
	aggs   []*aggState
}

// evalWithAggs evaluates an expression in aggregate context: aggregate
// calls read their computed state; other column references evaluate
// against the group's sample row (MySQL-permissive semantics).
func evalWithAggs(f *frame, e Expr, g *group, coll *aggCollector) (sqlval.Value, error) {
	switch x := e.(type) {
	case *FuncCall:
		if isAggregateName(x.Name) {
			key := x.String()
			for i, name := range coll.order {
				if name == key {
					return g.aggs[i].result(), nil
				}
			}
			return sqlval.Null(), fmt.Errorf("sqldb: uncollected aggregate %s", key)
		}
		return sqlval.Null(), fmt.Errorf("sqldb: unknown function %s", x.Name)
	case *Binary:
		if strings.EqualFold(x.Op, "AND") || strings.EqualFold(x.Op, "OR") {
			lv, err := evalWithAggs(f, x.L, g, coll)
			if err != nil {
				return sqlval.Null(), err
			}
			rv, err := evalWithAggs(f, x.R, g, coll)
			if err != nil {
				return sqlval.Null(), err
			}
			lb, rb := !lv.IsNull() && truthy(lv), !rv.IsNull() && truthy(rv)
			if strings.EqualFold(x.Op, "AND") {
				return boolVal(lb && rb), nil
			}
			return boolVal(lb || rb), nil
		}
		lv, err := evalWithAggs(f, x.L, g, coll)
		if err != nil {
			return sqlval.Null(), err
		}
		rv, err := evalWithAggs(f, x.R, g, coll)
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
		case "/":
			return sqlval.Div(lv, rv), nil
		default:
			if lv.IsNull() || rv.IsNull() {
				return sqlval.Null(), nil
			}
			return boolVal(compareCoerced(lv, rv, x.Op)), nil
		}
	case *Unary:
		v, err := evalWithAggs(f, x.E, g, coll)
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
	default:
		if g.sample == nil {
			if _, ok := e.(*Literal); ok {
				return evalExpr(f, e, nil)
			}
			return sqlval.Null(), nil
		}
		return evalExpr(f, e, g.sample)
	}
}

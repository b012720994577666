package sqldb

import (
	"fmt"
	"sort"

	"bestpeer/internal/sqlval"
)

// This file is the reference SELECT executor the differential tests
// compare DB.Query and ProjectRows against: the tree-walking,
// row-at-a-time pipeline that predates the batch executor, kept
// verbatim. It shares only name resolution, the cost model's choices
// (planScan, joinOrder) and evalExpr/evalWithAggs with production.

// oracleQuery runs sql through the reference executor.
func oracleQuery(db *DB, sql string) (*Result, error) {
	stmt, err := ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.executeSelect(stmt)
}

// fetchRows materializes one table's rows using the access path the
// cost model chose, applying the table's residual conjuncts, and
// charges scan statistics.
func fetchRows(t *Table, alias string, conjuncts []Expr, path accessPath, stats *Stats) ([]sqlval.Row, error) {
	f := &frame{}
	f.push(alias, t.Schema())

	filter := func(row sqlval.Row) (bool, error) {
		for _, c := range conjuncts {
			ok, err := evalPred(f, c, row)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	}

	var out []sqlval.Row
	if path.index != nil {
		stats.IndexUsed = true
		var ids []int
		if path.useEq {
			ids = path.index.Lookup(path.eq)
		} else {
			ids = path.index.Range(path.lo, path.hi, path.loInc, path.hiInc)
		}
		for _, id := range ids {
			row := t.Row(id)
			if row == nil {
				continue
			}
			stats.RowsScanned++
			stats.BytesScanned += int64(t.RowSize(id))
			ok, err := filter(row)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, row)
			}
		}
		return out, nil
	}

	var ferr error
	t.Scan(func(id int, row sqlval.Row) bool {
		stats.RowsScanned++
		stats.BytesScanned += int64(t.RowSize(id))
		ok, err := filter(row)
		if err != nil {
			ferr = err
			return false
		}
		if ok {
			out = append(out, row)
		}
		return true
	})
	return out, ferr
}

func hashKey(f *frame, keys []Expr, row sqlval.Row) (uint64, error) {
	var h uint64 = 1469598103934665603
	for _, k := range keys {
		v, err := evalExpr(f, k, row)
		if err != nil {
			return 0, err
		}
		h = h*1099511628211 ^ v.Hash()
	}
	return h, nil
}

func keysEqual(lf *frame, lkeys []Expr, lrow sqlval.Row, rf *frame, rkeys []Expr, rrow sqlval.Row) (bool, error) {
	for i := range lkeys {
		lv, err := evalExpr(lf, lkeys[i], lrow)
		if err != nil {
			return false, err
		}
		rv, err := evalExpr(rf, rkeys[i], rrow)
		if err != nil {
			return false, err
		}
		if lv.IsNull() || rv.IsNull() || !sqlval.Equal(lv, rv) {
			return false, nil
		}
	}
	return true, nil
}

// executeSelect runs a SELECT against the database's tables.
func (db *DB) executeSelect(stmt *SelectStmt) (*Result, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sqldb: SELECT without FROM")
	}
	tables := make([]*Table, len(stmt.From))
	schemas := make([]*Schema, len(stmt.From))
	for i, ref := range stmt.From {
		t := db.table(ref.Table)
		if t == nil {
			return nil, fmt.Errorf("sqldb: unknown table %s", ref.Table)
		}
		tables[i] = t
		schemas[i] = t.Schema()
	}

	var stats Stats
	perTable, cross := splitConjuncts(stmt.Where, stmt.From, schemas)
	order := db.joinOrder(tables, stmt.From, schemas, perTable, cross)

	// Stars expand in FROM order no matter how the cost model reorders
	// execution; the generated qualified references resolve by name in
	// the execution frame.
	starF := &frame{}
	for i, ref := range stmt.From {
		starF.push(ref.Alias, schemas[i])
	}

	// Build the joined row set left-to-right in cost-model join order.
	first := order[0]
	cur := &frame{}
	cur.push(stmt.From[first].Alias, schemas[first])
	choice := db.planScan(tables[first], stmt.From[first].Alias, perTable[first])
	rows, err := fetchRows(tables[first], stmt.From[first].Alias, perTable[first], choice.path, &stats)
	if err != nil {
		return nil, err
	}
	choice.observeEstimate(int64(len(rows)))
	pending := cross

	for _, ti := range order[1:] {
		rf := &frame{}
		rf.push(stmt.From[ti].Alias, schemas[ti])
		rchoice := db.planScan(tables[ti], stmt.From[ti].Alias, perTable[ti])
		rrows, err := fetchRows(tables[ti], stmt.From[ti].Alias, perTable[ti], rchoice.path, &stats)
		if err != nil {
			return nil, err
		}
		rchoice.observeEstimate(int64(len(rrows)))
		lkeys, rkeys, rest := equiJoinKeys(pending, cur, rf)

		next := &frame{}
		next.bindings = append(next.bindings, cur.bindings...)
		next.width = cur.width
		next.push(stmt.From[ti].Alias, schemas[ti])

		var joined []sqlval.Row
		if len(lkeys) > 0 {
			// Hash join: build on the smaller side conceptually; build on
			// right which is a base table fetch.
			build := make(map[uint64][]sqlval.Row, len(rrows))
			for _, rr := range rrows {
				h, err := hashKey(rf, rkeys, rr)
				if err != nil {
					return nil, err
				}
				build[h] = append(build[h], rr)
			}
			for _, lr := range rows {
				h, err := hashKey(cur, lkeys, lr)
				if err != nil {
					return nil, err
				}
				for _, rr := range build[h] {
					eq, err := keysEqual(cur, lkeys, lr, rf, rkeys, rr)
					if err != nil {
						return nil, err
					}
					if eq {
						nr := make(sqlval.Row, 0, next.width)
						nr = append(nr, lr...)
						nr = append(nr, rr...)
						joined = append(joined, nr)
					}
				}
			}
		} else {
			for _, lr := range rows {
				for _, rr := range rrows {
					nr := make(sqlval.Row, 0, next.width)
					nr = append(nr, lr...)
					nr = append(nr, rr...)
					joined = append(joined, nr)
				}
			}
		}

		// Apply any pending conditions that became resolvable.
		var still []Expr
		filtered := joined[:0]
		var applicable []Expr
		for _, c := range rest {
			if next.resolvable(c) {
				applicable = append(applicable, c)
			} else {
				still = append(still, c)
			}
		}
		if len(applicable) > 0 {
			for _, row := range joined {
				keep := true
				for _, c := range applicable {
					ok, err := evalPred(next, c, row)
					if err != nil {
						return nil, err
					}
					if !ok {
						keep = false
						break
					}
				}
				if keep {
					filtered = append(filtered, row)
				}
			}
			joined = filtered
		}
		cur = next
		rows = joined
		pending = still
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("sqldb: unresolvable predicate %s", AndAll(pending))
	}

	res, err := project(cur, starF, stmt, rows)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	res.Stats.RowsReturned = int64(len(res.Rows))
	for _, r := range res.Rows {
		res.Stats.BytesReturned += int64(r.EncodedSize())
	}
	return res, nil
}

// project applies grouping/aggregation, HAVING, ORDER BY, LIMIT, and the
// SELECT list to the joined rows. starF is the FROM-order frame used
// only to expand stars (f may be permuted by the join-order model).
func project(f, starF *frame, stmt *SelectStmt, rows []sqlval.Row) (*Result, error) {
	grouped := len(stmt.GroupBy) > 0
	for _, item := range stmt.Items {
		if !item.Star && HasAggregate(item.Expr) {
			grouped = true
		}
	}
	if stmt.Having != nil {
		grouped = true
	}
	if grouped {
		return projectGrouped(f, starF, stmt, rows)
	}

	cols, exprs, err := expandItems(starF, stmt.Items)
	if err != nil {
		return nil, err
	}
	type sortable struct {
		out  sqlval.Row
		keys sqlval.Row
	}
	outs := make([]sortable, 0, len(rows))
	for _, row := range rows {
		out := make(sqlval.Row, len(exprs))
		for i, e := range exprs {
			v, err := evalExpr(f, e, row)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		var keys sqlval.Row
		for _, o := range stmt.OrderBy {
			v, err := evalExpr(f, o.Expr, row)
			if err != nil {
				// Allow ORDER BY on a select alias.
				v2, err2 := orderByAlias(o.Expr, cols, out)
				if err2 != nil {
					return nil, err
				}
				v = v2
			}
			keys = append(keys, v)
		}
		outs = append(outs, sortable{out: out, keys: keys})
	}
	if len(stmt.OrderBy) > 0 {
		sort.SliceStable(outs, func(i, j int) bool {
			return lessKeys(outs[i].keys, outs[j].keys, stmt.OrderBy)
		})
	}
	res := &Result{Columns: cols}
	seen := newDistinctFilter(stmt.Distinct)
	for _, s := range outs {
		if !seen.admit(s.out) {
			continue
		}
		if stmt.Limit >= 0 && len(res.Rows) >= stmt.Limit {
			break
		}
		res.Rows = append(res.Rows, s.out)
	}
	return res, nil
}

// projectGrouped executes grouping, aggregation, HAVING, ORDER BY and
// projection for aggregate queries. starF expands stars in FROM order.
func projectGrouped(f, starF *frame, stmt *SelectStmt, rows []sqlval.Row) (*Result, error) {
	coll := collectAggregates(stmt)
	groups := make(map[uint64][]*group)
	var orderedGroups []*group

	newGroup := func(key, sample sqlval.Row) *group {
		g := &group{key: key, sample: sample}
		for _, name := range coll.order {
			g.aggs = append(g.aggs, newAggState(coll.calls[name].Name))
		}
		return g
	}

	for _, row := range rows {
		key := make(sqlval.Row, len(stmt.GroupBy))
		for i, e := range stmt.GroupBy {
			v, err := evalExpr(f, e, row)
			if err != nil {
				return nil, err
			}
			key[i] = v
		}
		var h uint64 = 14695981039346656037
		for _, v := range key {
			h = h*1099511628211 ^ v.Hash()
		}
		var g *group
		for _, cand := range groups[h] {
			same := true
			for i := range key {
				if !sqlval.Equal(cand.key[i], key[i]) {
					same = false
					break
				}
			}
			if same {
				g = cand
				break
			}
		}
		if g == nil {
			g = newGroup(key, row)
			groups[h] = append(groups[h], g)
			orderedGroups = append(orderedGroups, g)
		}
		for i, name := range coll.order {
			call := coll.calls[name]
			if call.Star {
				g.aggs[i].add(sqlval.Int(1))
				continue
			}
			v, err := evalExpr(f, call.Args[0], row)
			if err != nil {
				return nil, err
			}
			g.aggs[i].add(v)
		}
	}

	// A global aggregate (no GROUP BY) over zero rows still yields one row.
	if len(stmt.GroupBy) == 0 && len(orderedGroups) == 0 {
		orderedGroups = append(orderedGroups, newGroup(nil, nil))
	}

	cols, exprs, err := expandItems(starF, stmt.Items)
	if err != nil {
		return nil, err
	}

	evalAgg := func(g *group, e Expr) (sqlval.Value, error) {
		return evalWithAggs(f, e, g, coll)
	}

	res := &Result{Columns: cols}
	type sorted struct {
		out  sqlval.Row
		keys sqlval.Row
	}
	var outs []sorted
	for _, g := range orderedGroups {
		if stmt.Having != nil {
			v, err := evalAgg(g, stmt.Having)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !truthy(v) {
				continue
			}
		}
		out := make(sqlval.Row, len(exprs))
		for i, e := range exprs {
			v, err := evalAgg(g, e)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		var keys sqlval.Row
		for _, o := range stmt.OrderBy {
			v, err := evalAgg(g, o.Expr)
			if err != nil {
				v2, err2 := orderByAlias(o.Expr, cols, out)
				if err2 != nil {
					return nil, err
				}
				v = v2
			}
			keys = append(keys, v)
		}
		outs = append(outs, sorted{out: out, keys: keys})
	}
	if len(stmt.OrderBy) > 0 {
		sort.SliceStable(outs, func(i, j int) bool {
			return lessKeys(outs[i].keys, outs[j].keys, stmt.OrderBy)
		})
	}
	seen := newDistinctFilter(stmt.Distinct)
	for _, s := range outs {
		if !seen.admit(s.out) {
			continue
		}
		if stmt.Limit >= 0 && len(res.Rows) >= stmt.Limit {
			break
		}
		res.Rows = append(res.Rows, s.out)
	}
	return res, nil
}

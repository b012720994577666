package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bestpeer/internal/sqldb"
)

// randomQuery generates a random but valid SELECT over the TPC-H
// orders/lineitem tables: random projections, random literal
// predicates, an optional join, and optional aggregation with GROUP BY.
func randomQuery(rng *rand.Rand) string {
	type col struct {
		name string
		kind string // "int", "float", "date"
	}
	orders := []col{
		{"o_orderkey", "int"}, {"o_custkey", "int"},
		{"o_totalprice", "float"}, {"o_orderdate", "date"},
		{"o_shippriority", "int"},
	}
	lineitem := []col{
		{"l_orderkey", "int"}, {"l_partkey", "int"}, {"l_quantity", "int"},
		{"l_extendedprice", "float"}, {"l_discount", "float"},
		{"l_shipdate", "date"},
	}
	lit := func(c col) string {
		switch c.kind {
		case "int":
			return fmt.Sprintf("%d", rng.Intn(5000))
		case "float":
			return fmt.Sprintf("%.2f", rng.Float64()*5000)
		default:
			return fmt.Sprintf("DATE '199%d-%02d-%02d'", rng.Intn(7)+2, rng.Intn(12)+1, rng.Intn(28)+1)
		}
	}
	op := func() string {
		return []string{"<", "<=", ">", ">=", "="}[rng.Intn(5)]
	}
	pred := func(alias string, cols []col) string {
		c := cols[rng.Intn(len(cols))]
		return fmt.Sprintf("%s.%s %s %s", alias, c.name, op(), lit(c))
	}

	join := rng.Intn(2) == 0
	var from string
	var pool []struct {
		alias string
		col   col
	}
	add := func(alias string, cols []col) {
		for _, c := range cols {
			pool = append(pool, struct {
				alias string
				col   col
			}{alias, c})
		}
	}
	var conds []string
	if join {
		from = "orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey"
		add("o", orders)
		add("l", lineitem)
		if rng.Intn(2) == 0 {
			conds = append(conds, pred("o", orders))
		}
		if rng.Intn(2) == 0 {
			conds = append(conds, pred("l", lineitem))
		}
	} else {
		from = "lineitem l"
		add("l", lineitem)
		for i := 0; i < rng.Intn(3); i++ {
			conds = append(conds, pred("l", lineitem))
		}
	}

	pick := func() (string, col) {
		p := pool[rng.Intn(len(pool))]
		return p.alias, p.col
	}

	aggregate := rng.Intn(2) == 0
	var items []string
	var groupBy string
	if aggregate {
		ga, gc := pick()
		groupRef := ga + "." + gc.name
		items = append(items, groupRef)
		fns := []string{"COUNT", "SUM", "MIN", "MAX", "AVG"}
		for i := 0; i < rng.Intn(2)+1; i++ {
			fa, fc := pick()
			fn := fns[rng.Intn(len(fns))]
			if fn == "COUNT" && rng.Intn(2) == 0 {
				items = append(items, "COUNT(*)")
			} else {
				items = append(items, fmt.Sprintf("%s(%s.%s) AS a%d", fn, fa, fc.name, i))
			}
		}
		groupBy = " GROUP BY " + groupRef
	} else {
		for i := 0; i < rng.Intn(3)+1; i++ {
			pa, pc := pick()
			items = append(items, pa+"."+pc.name)
		}
	}

	sql := "SELECT " + strings.Join(items, ", ") + " FROM " + from
	if len(conds) > 0 {
		sql += " WHERE " + strings.Join(conds, " AND ")
	}
	sql += groupBy
	return sql
}

// TestRandomQueriesAllEnginesAgree cross-checks the three engines
// against the single-database oracle on randomized queries.
func TestRandomQueriesAllEnginesAgree(t *testing.T) {
	b, oracle := newTPCHBackend(t, 3, 0.003)
	rng := rand.New(rand.NewSource(20260706))
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		sql := randomQuery(rng)
		stmt, err := sqldb.ParseSelect(sql)
		if err != nil {
			t.Fatalf("trial %d: generated unparseable SQL %q: %v", trial, sql, err)
		}
		want, err := oracle.ExecStmt(stmt)
		if err != nil {
			t.Fatalf("trial %d: oracle failed on %q: %v", trial, sql, err)
		}
		engines := map[string]interface {
			Execute(*sqldb.SelectStmt) (*QueryResult, error)
		}{
			"basic":     &Basic{B: b},
			"parallel":  &Parallel{B: b},
			"mapreduce": &MapReduce{B: b},
		}
		for name, e := range engines {
			got, err := e.Execute(stmt)
			if err != nil {
				t.Fatalf("trial %d: %s failed on %q: %v", trial, name, sql, err)
			}
			g, w := canonical(got.Result), canonical(want)
			if len(g) != len(w) {
				t.Fatalf("trial %d: %s returned %d rows, oracle %d\nsql: %s",
					trial, name, len(g), len(w), sql)
			}
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("trial %d: %s row %d differs\nsql: %s\n got  %s\n want %s",
						trial, name, i, sql, g[i], w[i])
				}
			}
		}
	}
}

// TestAggregatesOverEveryColumnKind runs SUM/AVG/MIN/MAX over an INT, a
// FLOAT and a DATE column, global and grouped, single-table and joined,
// through every engine. The partial schema must declare each partial
// column with the kind the data owners' aggregates really return (SUM
// and AVG over a DATE ship FLOAT partials) or the merge rejects the
// partial rows.
func TestAggregatesOverEveryColumnKind(t *testing.T) {
	b, oracle := newTPCHBackend(t, 3, 0.003)
	engines := map[string]interface {
		Execute(*sqldb.SelectStmt) (*QueryResult, error)
	}{
		"basic":     &Basic{B: b},
		"parallel":  &Parallel{B: b},
		"mapreduce": &MapReduce{B: b},
		"adaptive":  NewAdaptive(b, Options{}, ""),
	}
	for _, fn := range []string{"SUM", "AVG", "MIN", "MAX"} {
		for _, col := range []string{"l.l_quantity", "l.l_extendedprice", "l.l_shipdate"} {
			agg := fmt.Sprintf("%s(%s)", fn, col)
			for _, sql := range []string{
				"SELECT " + agg + " FROM lineitem l",
				"SELECT l.l_partkey, " + agg + " FROM lineitem l GROUP BY l.l_partkey",
				"SELECT o.o_shippriority, " + agg + " FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey GROUP BY o.o_shippriority",
			} {
				stmt, err := sqldb.ParseSelect(sql)
				if err != nil {
					t.Fatalf("%q: %v", sql, err)
				}
				want, err := oracle.ExecStmt(stmt)
				if err != nil {
					t.Fatalf("oracle on %q: %v", sql, err)
				}
				for name, e := range engines {
					got, err := e.Execute(stmt)
					if err != nil {
						t.Fatalf("%s on %q: %v", name, sql, err)
					}
					assertSameResult(t, name+": "+sql, got.Result, want)
				}
			}
		}
	}
}

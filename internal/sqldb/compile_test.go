package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bestpeer/internal/sqlval"
)

// The differential tests hold production against the reference
// executor in oracle_test.go (the tree-walking interpreter): whole
// statements through DB.Query must return the oracle's rows, in order,
// and its Stats record (the cost model's inputs); ProjectRows must
// return the oracle's projection; and the closure compiler the engines
// and DML use must agree with evalExpr on every value, truth and error.

type fuzzCol struct {
	alias string
	name  string
	kind  sqlval.Kind
}

type exprGen struct {
	rng  *rand.Rand
	cols []fuzzCol
}

func (g *exprGen) pick(kind sqlval.Kind) fuzzCol {
	var c []fuzzCol
	for _, fc := range g.cols {
		if fc.kind == kind {
			c = append(c, fc)
		}
	}
	return c[g.rng.Intn(len(c))]
}

func (g *exprGen) ref(c fuzzCol) Expr {
	if g.rng.Intn(2) == 0 {
		return &ColumnRef{Table: c.alias, Column: c.name}
	}
	return &ColumnRef{Column: c.name}
}

// lit builds a literal of the kind, occasionally NULL.
func (g *exprGen) lit(kind sqlval.Kind) Expr {
	if g.rng.Intn(10) == 0 {
		return &Literal{Val: sqlval.Null()}
	}
	switch kind {
	case sqlval.KindInt:
		return &Literal{Val: sqlval.Int(int64(g.rng.Intn(200) - 100))}
	case sqlval.KindFloat:
		return &Literal{Val: sqlval.Float(float64(g.rng.Intn(2000))/10 - 100)}
	case sqlval.KindDate:
		return &Literal{Val: sqlval.Date(int64(10000 + g.rng.Intn(400)))}
	default:
		return &Literal{Val: sqlval.Str(fmt.Sprintf("s%d", g.rng.Intn(20)))}
	}
}

// numeric builds an expression of numeric value.
func (g *exprGen) numeric(depth int) Expr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(2) == 0 {
			kind := sqlval.KindInt
			if g.rng.Intn(2) == 0 {
				kind = sqlval.KindFloat
			}
			return g.ref(g.pick(kind))
		}
		if g.rng.Intn(2) == 0 {
			return g.lit(sqlval.KindInt)
		}
		return g.lit(sqlval.KindFloat)
	}
	switch g.rng.Intn(5) {
	case 0:
		return &Binary{Op: "+", L: g.numeric(depth - 1), R: g.numeric(depth - 1)}
	case 1:
		return &Binary{Op: "-", L: g.numeric(depth - 1), R: g.numeric(depth - 1)}
	case 2:
		return &Binary{Op: "*", L: g.numeric(depth - 1), R: g.numeric(depth - 1)}
	case 3:
		// Nonzero literal divisor: both paths share sqlval.Div, but a
		// deterministic divisor keeps the values finite and comparable.
		return &Binary{Op: "/", L: g.numeric(depth - 1), R: &Literal{Val: sqlval.Int(int64(g.rng.Intn(9) + 1))}}
	default:
		return &Unary{Op: "-", E: g.numeric(depth - 1)}
	}
}

// cmp builds a comparison with kind-coherent operands, including the
// date-vs-string coercion path.
func (g *exprGen) cmp() Expr {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	op := ops[g.rng.Intn(len(ops))]
	switch g.rng.Intn(4) {
	case 0:
		return &Binary{Op: op, L: g.numeric(1), R: g.numeric(1)}
	case 1:
		c := g.pick(sqlval.KindString)
		return &Binary{Op: op, L: g.ref(c), R: g.lit(sqlval.KindString)}
	case 2:
		c := g.pick(sqlval.KindDate)
		if g.rng.Intn(2) == 0 {
			// DATE column against a string literal: the coercion rule.
			return &Binary{Op: op, L: g.ref(c), R: &Literal{Val: sqlval.Str("1997-06-15")}}
		}
		return &Binary{Op: op, L: g.ref(c), R: g.lit(sqlval.KindDate)}
	default:
		c := g.pick(sqlval.KindInt)
		return &Binary{Op: op, L: g.ref(c), R: g.lit(sqlval.KindInt)}
	}
}

// pred builds a boolean expression.
func (g *exprGen) pred(depth int) Expr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			c := g.cols[g.rng.Intn(len(g.cols))]
			return &IsNull{E: g.ref(c), Not: g.rng.Intn(2) == 0}
		case 1:
			e := g.numeric(1)
			return &Between{E: e, Lo: g.lit(sqlval.KindInt), Hi: g.lit(sqlval.KindInt), Not: g.rng.Intn(2) == 0}
		case 2:
			list := []Expr{g.lit(sqlval.KindInt), g.lit(sqlval.KindInt), g.lit(sqlval.KindInt)}
			return &InList{E: g.numeric(1), List: list, Not: g.rng.Intn(2) == 0}
		default:
			return g.cmp()
		}
	}
	switch g.rng.Intn(3) {
	case 0:
		return &Binary{Op: "AND", L: g.pred(depth - 1), R: g.pred(depth - 1)}
	case 1:
		return &Binary{Op: "OR", L: g.pred(depth - 1), R: g.pred(depth - 1)}
	default:
		return &Unary{Op: "NOT", E: g.pred(depth - 1)}
	}
}

// row builds a random row matching the generator's column layout, with
// NULLs sprinkled in.
func (g *exprGen) row() sqlval.Row {
	row := make(sqlval.Row, len(g.cols))
	for i, c := range g.cols {
		if g.rng.Intn(8) == 0 {
			row[i] = sqlval.Null()
			continue
		}
		switch c.kind {
		case sqlval.KindInt:
			row[i] = sqlval.Int(int64(g.rng.Intn(200) - 100))
		case sqlval.KindFloat:
			row[i] = sqlval.Float(float64(g.rng.Intn(2000))/10 - 100)
		case sqlval.KindDate:
			row[i] = sqlval.Date(int64(10000 + g.rng.Intn(400)))
		default:
			row[i] = sqlval.Str(fmt.Sprintf("s%d", g.rng.Intn(20)))
		}
	}
	return row
}

func fuzzFrame() (*frame, []fuzzCol) {
	a := &Schema{Table: "a", Columns: []Column{
		{Name: "ai", Kind: sqlval.KindInt},
		{Name: "af", Kind: sqlval.KindFloat},
		{Name: "as1", Kind: sqlval.KindString},
		{Name: "ad", Kind: sqlval.KindDate},
	}}
	b := &Schema{Table: "b", Columns: []Column{
		{Name: "bi", Kind: sqlval.KindInt},
		{Name: "bf", Kind: sqlval.KindFloat},
		{Name: "bs", Kind: sqlval.KindString},
		{Name: "bd", Kind: sqlval.KindDate},
	}}
	f := &frame{}
	f.push("a", a)
	f.push("b", b)
	var cols []fuzzCol
	for _, s := range []*Schema{a, b} {
		for _, c := range s.Columns {
			cols = append(cols, fuzzCol{alias: s.Table, name: c.Name, kind: c.Kind})
		}
	}
	return f, cols
}

func sameValue(a, b sqlval.Value) bool {
	return a.Kind() == b.Kind() && a.String() == b.String()
}

func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// TestDifferentialOracleVsProjectRows fuzzes random expressions over
// random rows. Each expression is evaluated three ways that must agree:
// the interpreter (evalExpr/evalPred), the closures CompileExprOver and
// CompilePredicates hand the engines, and — as the select list, ORDER BY
// key and GROUP BY key of generated statements — ProjectRows against
// the oracle's project.
func TestDifferentialOracleVsProjectRows(t *testing.T) {
	f, cols := fuzzFrame()
	var bindings []Binding
	for _, b := range f.bindings {
		bindings = append(bindings, Binding{Alias: b.alias, Schema: b.schema})
	}
	rng := rand.New(rand.NewSource(20260805))
	g := &exprGen{rng: rng, cols: cols}
	for trial := 0; trial < 400; trial++ {
		var e Expr
		if trial%2 == 0 {
			e = g.pred(3)
		} else {
			e = g.numeric(3)
		}
		ce := CompileExprOver(bindings, e)
		cp := CompilePredicates(bindings, []Expr{e})
		rows := make([]sqlval.Row, 16)
		for r := range rows {
			row := g.row()
			rows[r] = row
			wantV, wantErr := evalExpr(f, e, row)
			gotV, gotErr := ce(row)
			if !sameError(wantErr, gotErr) {
				t.Fatalf("trial %d: %s over %v: interp err %v, compiled err %v", trial, e, row, wantErr, gotErr)
			}
			if wantErr == nil && !sameValue(wantV, gotV) {
				t.Fatalf("trial %d: %s over %v: interp %v (%v), compiled %v (%v)",
					trial, e, row, wantV, wantV.Kind(), gotV, gotV.Kind())
			}
			wantB, wantErr := evalPred(f, e, row)
			gotB, gotErr := cp(row)
			if !sameError(wantErr, gotErr) || wantB != gotB {
				t.Fatalf("trial %d: pred %s over %v: interp (%v,%v), compiled (%v,%v)",
					trial, e, row, wantB, wantErr, gotB, gotErr)
			}
		}
		order := []OrderItem{{Expr: e, Desc: trial%3 == 0}}
		stmts := []*SelectStmt{
			{Items: []SelectItem{{Expr: e, Alias: "v"}, {Expr: &ColumnRef{Table: "a", Column: "ai"}}},
				OrderBy: order, Distinct: trial%5 == 0, Limit: -1},
			{Items: []SelectItem{
				{Expr: e},
				{Expr: &FuncCall{Name: "COUNT", Star: true}},
				{Expr: &FuncCall{Name: "SUM", Args: []Expr{e}}},
				{Expr: &FuncCall{Name: "AVG", Args: []Expr{&ColumnRef{Column: "af"}}}},
				{Expr: &FuncCall{Name: "MIN", Args: []Expr{&ColumnRef{Column: "bd"}}}},
				{Expr: &FuncCall{Name: "MAX", Args: []Expr{&ColumnRef{Column: "bs"}}}},
			}, GroupBy: []Expr{e}, OrderBy: order, Limit: -1},
		}
		for _, stmt := range stmts {
			want, wantErr := project(f, f, stmt, rows)
			got, gotErr := ProjectRows(stmt, bindings, rows)
			if !sameError(wantErr, gotErr) {
				t.Fatalf("trial %d: %s: oracle err %v, ProjectRows err %v", trial, stmt, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if strings.Join(want.Columns, ",") != strings.Join(got.Columns, ",") || rowsKey(want) != rowsKey(got) || want.Stats != got.Stats {
				t.Fatalf("trial %d: %s over %v differs\noracle:\n%sProjectRows:\n%s", trial, stmt, rows, rowsKey(want), rowsKey(got))
			}
		}
	}
}

// randomStatement renders a random SELECT over the shared test tables:
// filters, joins, grouping, ordering, distinct, limits.
func randomStatement(rng *rand.Rand) string {
	lit := func(kind string) string {
		switch kind {
		case "int":
			return fmt.Sprintf("%d", rng.Intn(30))
		case "float":
			return fmt.Sprintf("%.1f", float64(rng.Intn(3000)))
		default:
			return fmt.Sprintf("DATE '1998-%02d-%02d'", rng.Intn(3)+1, rng.Intn(28)+1)
		}
	}
	ops := []string{"<", "<=", ">", ">=", "="}
	op := func() string { return ops[rng.Intn(len(ops))] }
	switch rng.Intn(5) {
	case 0: // filtered single-table scan
		return fmt.Sprintf("SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice %s %s",
			op(), lit("float"))
	case 1: // index-friendly point/range query
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("SELECT * FROM orders WHERE o_orderkey = %s", lit("int"))
		}
		return fmt.Sprintf("SELECT l_orderkey, l_quantity FROM lineitem WHERE l_shipdate %s %s",
			op(), lit("date"))
	case 2: // join with residual filter
		return fmt.Sprintf("SELECT o.o_orderkey, l.l_quantity FROM orders o, lineitem l "+
			"WHERE o.o_orderkey = l.l_orderkey AND l.l_quantity %s %s", op(), lit("int"))
	case 3: // grouped aggregate, optional HAVING
		q := "SELECT o_custkey, COUNT(*), SUM(o_totalprice) FROM orders GROUP BY o_custkey"
		if rng.Intn(2) == 0 {
			q += fmt.Sprintf(" HAVING COUNT(*) > %d", rng.Intn(3))
		}
		return q
	default: // order/distinct/limit shapes
		q := "SELECT DISTINCT o_custkey FROM orders ORDER BY o_custkey"
		if rng.Intn(2) == 0 {
			q += " DESC"
		}
		if rng.Intn(2) == 0 {
			q += fmt.Sprintf(" LIMIT %d", rng.Intn(4)+1)
		}
		return q
	}
}

func rowsKey(res *Result) string {
	var sb strings.Builder
	for _, r := range res.Rows {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// queryMatchesOracle runs sql through DB.Query and the reference
// executor: errors, rows (in order) and Stats must be identical. It
// returns Query's result.
func queryMatchesOracle(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	want, wantErr := oracleQuery(db, sql)
	got, gotErr := db.Query(sql)
	if !sameError(wantErr, gotErr) {
		t.Fatalf("%q: oracle err %v, Query err %v", sql, wantErr, gotErr)
	}
	if wantErr != nil {
		return nil
	}
	if strings.Join(want.Columns, ",") != strings.Join(got.Columns, ",") {
		t.Fatalf("%q columns differ: oracle %v, Query %v", sql, want.Columns, got.Columns)
	}
	if rowsKey(want) != rowsKey(got) {
		t.Fatalf("%q rows differ\noracle:\n%sQuery:\n%s", sql, rowsKey(want), rowsKey(got))
	}
	if want.Stats != got.Stats {
		t.Fatalf("%q stats differ: oracle %+v, Query %+v", sql, want.Stats, got.Stats)
	}
	return got
}

// TestDifferentialOracleVsQuery executes random statements through
// DB.Query and the reference executor: the small TPC-H-shaped tables
// (joins, grouping, ordering, distinct, limits) and the 1500-row fact
// table whose batches straddle the 1024-row boundary with NULLs in
// every column kind.
func TestDifferentialOracleVsQuery(t *testing.T) {
	t.Run("tpch", func(t *testing.T) {
		db := testDB(t)
		rng := rand.New(rand.NewSource(20260806))
		for trial := 0; trial < 120; trial++ {
			queryMatchesOracle(t, db, randomStatement(rng))
		}
	})
	t.Run("vector", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20260808))
		db := batchFuzzDB(t, batchFuzzRows(rng, 1500))
		for trial := 0; trial < 200; trial++ {
			queryMatchesOracle(t, db, randomBatchStatement(rng))
		}
	})
}

// TestCompileErrorsAreReturned pins the single path's error contract:
// names resolve at plan time, so a statement that does not compile
// fails whether or not its tables hold rows (the interpreter only
// tripped per row, so the same statements over empty tables used to
// return zero rows), and EXPLAIN reports the same error.
func TestCompileErrorsAreReturned(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE empty_t (a INT)`)
	mustExec(t, db, `CREATE TABLE empty_u (a INT)`)
	for sql, want := range map[string]string{
		`SELECT nope FROM empty_t`:                            "unknown column nope",
		`SELECT a FROM empty_t WHERE nope > 1`:                "unresolvable predicate",
		`SELECT a FROM empty_t, empty_u`:                      "ambiguous column a",
		`SELECT empty_t.a FROM empty_t WHERE frob(empty_t.a)`: "unknown function FROB",
		`SELECT COUNT(*) FROM empty_t GROUP BY nope`:          "unknown column nope",
		`SELECT a FROM empty_t ORDER BY nope`:                 "unknown column nope",
		`SELECT a FROM missing_t`:                             "unknown table missing_t",
	} {
		if _, err := db.Query(sql); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Query(%q) err = %v, want %q", sql, err, want)
		}
		if _, err := db.ExplainSelect(sql); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ExplainSelect(%q) err = %v, want %q", sql, err, want)
		}
	}
	// DML resolves names at plan time too: these used to succeed on an
	// empty table because only a scanned row tripped the error.
	for sql, want := range map[string]string{
		`DELETE FROM empty_t WHERE nope = 1`:      "unknown column nope",
		`UPDATE empty_t SET a = 1 WHERE nope = 1`: "unknown column nope",
		`UPDATE empty_t SET a = nope2 + 1`:        "unknown column nope2",
	} {
		if _, err := db.Exec(sql); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Exec(%q) err = %v, want %q", sql, err, want)
		}
	}
}

package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bestpeer/internal/sqlval"
)

// The vector edge suite: data sets and statement shapes that exercise
// the batch kernels where they are most likely to go wrong — batches
// that straddle the 1024-row boundary, empty inputs, all-filtered
// selections, NULL three-valued logic — plus one case per shape the
// batch path had to learn to become the only path. Every query is held
// against the reference executor (queryMatchesOracle).

// batchFuzzRows generates one deterministic data set for the fact
// table: enough rows that batches straddle the 1024-row boundary, with
// NULLs sprinkled through every column kind.
func batchFuzzRows(rng *rand.Rand, n int) []sqlval.Row {
	rows := make([]sqlval.Row, 0, n)
	for i := 0; i < n; i++ {
		row := sqlval.Row{
			sqlval.Int(int64(i)),                            // f_id
			sqlval.Int(int64(rng.Intn(40))),                 // f_dim
			sqlval.Float(float64(rng.Intn(20000))/100 - 50), // f_price
			sqlval.Float(float64(rng.Intn(50)) / 100),       // f_disc
			sqlval.Date(int64(10000 + rng.Intn(500))),       // f_date
			sqlval.Str(fmt.Sprintf("tag%d", rng.Intn(6))),   // f_tag
		}
		// NULL one non-key column on ~1/6 of rows.
		if rng.Intn(6) == 0 {
			row[1+rng.Intn(5)] = sqlval.Null()
		}
		rows = append(rows, row)
	}
	return rows
}

// batchFuzzDB builds one database instance loaded with the shared data
// set: a fact table large enough to straddle batch boundaries, a small
// dimension table, and a range index the cost model can pick.
func batchFuzzDB(t *testing.T, facts []sqlval.Row) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE fact (f_id INT PRIMARY KEY, f_dim INT, f_price FLOAT, f_disc FLOAT, f_date DATE, f_tag STRING)`)
	mustExec(t, db, `CREATE TABLE dim (d_id INT PRIMARY KEY, d_name STRING, d_rank INT)`)
	mustExec(t, db, `CREATE INDEX idx_fact_date ON fact (f_date)`)
	for _, r := range facts {
		row := make(sqlval.Row, len(r))
		copy(row, r)
		if err := db.InsertRow("fact", row); err != nil {
			t.Fatalf("InsertRow fact: %v", err)
		}
	}
	for i := 0; i < 40; i++ {
		name := sqlval.Str(fmt.Sprintf("dim%d", i%7))
		if i%9 == 0 {
			name = sqlval.Null()
		}
		if err := db.InsertRow("dim", sqlval.Row{sqlval.Int(int64(i)), name, sqlval.Int(int64(i % 4))}); err != nil {
			t.Fatalf("InsertRow dim: %v", err)
		}
	}
	return db
}

// randomBatchStatement renders shapes that exercise the vector kernels:
// multi-conjunct date-range filters (the fig-6 Q1 shape), float
// arithmetic aggregates (the Q2 shape), IN/BETWEEN/IS NULL predicates,
// string compares, joins with residuals, and grouped aggregation.
func randomBatchStatement(rng *rand.Rand) string {
	day := func() string {
		return fmt.Sprintf("DATE '%s'", sqlval.Date(int64(10000+rng.Intn(500))).String())
	}
	ops := []string{"<", "<=", ">", ">=", "=", "<>"}
	op := func() string { return ops[rng.Intn(len(ops))] }
	switch rng.Intn(10) {
	case 0: // fig-6 Q1 shape: conjunctive range filter
		return fmt.Sprintf("SELECT f_id, f_price FROM fact WHERE f_date >= %s AND f_date < %s AND f_price > %d AND f_disc <= 0.%02d",
			day(), day(), rng.Intn(100)-50, rng.Intn(99))
	case 1: // fig-6 Q2 shape: arithmetic aggregate under a date filter
		return fmt.Sprintf("SELECT SUM(f_price * (1 - f_disc)), COUNT(*) FROM fact WHERE f_date < %s", day())
	case 2: // index-friendly equality and range probes
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("SELECT * FROM fact WHERE f_id = %d", rng.Intn(1400))
		}
		return fmt.Sprintf("SELECT f_id FROM fact WHERE f_date %s %s", op(), day())
	case 3: // IN list over ints and strings
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("SELECT COUNT(*) FROM fact WHERE f_dim IN (%d, %d, %d)",
				rng.Intn(40), rng.Intn(40), rng.Intn(40))
		}
		return fmt.Sprintf("SELECT f_id FROM fact WHERE f_tag NOT IN ('tag0', 'tag%d') AND f_id < %d",
			rng.Intn(6), rng.Intn(1400))
	case 4: // BETWEEN with NOT and NULL-aware IS NULL
		return fmt.Sprintf("SELECT COUNT(f_dim), COUNT(*) FROM fact WHERE f_price BETWEEN %d AND %d OR f_tag IS NULL",
			rng.Intn(50)-50, rng.Intn(150))
	case 5: // string compare plus date-vs-string coercion
		return fmt.Sprintf("SELECT f_id FROM fact WHERE f_tag %s 'tag%d' AND f_date > '%s'",
			op(), rng.Intn(6), sqlval.Date(int64(10000+rng.Intn(500))).String())
	case 6: // join with residual filter and projection arithmetic
		return fmt.Sprintf("SELECT f.f_id, d.d_name, f.f_price * 2 FROM fact f, dim d "+
			"WHERE f.f_dim = d.d_id AND d.d_rank %s %d AND f.f_price > %d",
			op(), rng.Intn(4), rng.Intn(100)-50)
	case 7: // grouped aggregate over the join
		q := "SELECT d.d_rank, COUNT(*), SUM(f.f_price), MIN(f.f_date), MAX(f.f_dim), AVG(f.f_disc) " +
			"FROM fact f, dim d WHERE f.f_dim = d.d_id GROUP BY d.d_rank ORDER BY d.d_rank"
		if rng.Intn(2) == 0 {
			q = fmt.Sprintf("SELECT f_dim, SUM(f_price * (1 - f_disc)) FROM fact WHERE f_date < %s GROUP BY f_dim HAVING COUNT(*) > %d ORDER BY f_dim",
				day(), rng.Intn(4))
		}
		return q
	case 8: // arithmetic projection with unary minus and division
		return fmt.Sprintf("SELECT f_id, -f_price, f_price / %d + f_disc FROM fact WHERE f_id BETWEEN %d AND %d ORDER BY f_id",
			rng.Intn(7)+1, rng.Intn(1400), rng.Intn(1400))
	default: // distinct/order/limit over floats
		return fmt.Sprintf("SELECT DISTINCT f_dim FROM fact WHERE f_price %s %d ORDER BY f_dim DESC LIMIT %d",
			op(), rng.Intn(60)-30, rng.Intn(12)+1)
	}
}

// TestBatchEmptyTable drives the vector path over zero rows: scans,
// filters, global and grouped aggregates must all shape correctly with
// no batches produced.
func TestBatchEmptyTable(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE e (a INT, b FLOAT, c DATE)`)
	res := queryMatchesOracle(t, db, `SELECT a, b FROM e WHERE a > 0`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d, want 0", len(res.Rows))
	}
	res = queryMatchesOracle(t, db, `SELECT COUNT(*), SUM(b), MIN(c) FROM e`)
	if len(res.Rows) != 1 {
		t.Fatalf("aggregate rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0][0].AsInt() != 0 || !res.Rows[0][1].IsNull() || !res.Rows[0][2].IsNull() {
		t.Fatalf("empty aggregate = %v, want 0, NULL, NULL", res.Rows[0])
	}
	res = queryMatchesOracle(t, db, `SELECT a, COUNT(*) FROM e GROUP BY a`)
	if len(res.Rows) != 0 {
		t.Fatalf("grouped rows = %d, want 0", len(res.Rows))
	}
}

// TestBatchAllRowsFiltered exercises selection bitmaps that come up
// empty on every batch: the filter drops all 1500 rows.
func TestBatchAllRowsFiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := batchFuzzDB(t, batchFuzzRows(rng, 1500))
	res := queryMatchesOracle(t, db, `SELECT f_id FROM fact WHERE f_id < 0`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d, want 0", len(res.Rows))
	}
	res = queryMatchesOracle(t, db, `SELECT SUM(f_price), COUNT(*) FROM fact WHERE f_dim > 1000`)
	if !res.Rows[0][0].IsNull() || res.Rows[0][1].AsInt() != 0 {
		t.Fatalf("filtered-out aggregate = %v, want NULL, 0", res.Rows[0])
	}
}

// TestBatchBoundaryStraddle pins exact results for data sets that
// straddle the 1024-row batch boundary: full batches, a partial tail,
// and filters whose qualifying rows cross the boundary.
func TestBatchBoundaryStraddle(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE seq (id INT PRIMARY KEY, v INT)`)
	const n = 2600 // 2 full batches + 552-row tail
	for i := 0; i < n; i++ {
		if err := db.InsertRow("seq", sqlval.Row{sqlval.Int(int64(i)), sqlval.Int(int64(i % 10))}); err != nil {
			t.Fatalf("InsertRow: %v", err)
		}
	}
	res := queryMatchesOracle(t, db, `SELECT COUNT(*), SUM(id) FROM seq`)
	if got := res.Rows[0][0].AsInt(); got != n {
		t.Fatalf("COUNT(*) = %d, want %d", got, n)
	}
	if got := res.Rows[0][1].AsInt(); got != int64(n)*(n-1)/2 {
		t.Fatalf("SUM(id) = %d, want %d", got, int64(n)*(n-1)/2)
	}
	// Qualifying rows 1020..1030 straddle the first boundary.
	res = queryMatchesOracle(t, db, `SELECT id FROM seq WHERE id BETWEEN 1020 AND 1030 ORDER BY id`)
	if len(res.Rows) != 11 || res.Rows[0][0].AsInt() != 1020 || res.Rows[10][0].AsInt() != 1030 {
		t.Fatalf("straddle filter = %d rows (%v..%v)", len(res.Rows), res.Rows[0][0], res.Rows[len(res.Rows)-1][0])
	}
	// Exactly one batch worth of qualifying rows.
	res = queryMatchesOracle(t, db, `SELECT COUNT(*) FROM seq WHERE id < 1024`)
	if got := res.Rows[0][0].AsInt(); got != 1024 {
		t.Fatalf("COUNT(id<1024) = %d, want 1024", got)
	}
}

// TestBatchNullHandling pins three-valued logic through the vector
// kernels: NULL operands in filters, aggregates, and join keys.
func TestBatchNullHandling(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE nt (id INT, x INT, s STRING)`)
	for i := 0; i < 1100; i++ {
		x, s := sqlval.Int(int64(i%7)), sqlval.Str(fmt.Sprintf("v%d", i%3))
		if i%5 == 0 {
			x = sqlval.Null()
		}
		if i%4 == 0 {
			s = sqlval.Null()
		}
		if err := db.InsertRow("nt", sqlval.Row{sqlval.Int(int64(i)), sqlval.Value(x), sqlval.Value(s)}); err != nil {
			t.Fatalf("InsertRow: %v", err)
		}
	}
	// NULL comparisons are unknown, so neither x > 3 nor NOT (x > 3)
	// admits a NULL row: the two counts partition the non-NULL rows.
	a := queryMatchesOracle(t, db, `SELECT COUNT(*) FROM nt WHERE x > 3`).Rows[0][0].AsInt()
	b := queryMatchesOracle(t, db, `SELECT COUNT(*) FROM nt WHERE NOT (x > 3)`).Rows[0][0].AsInt()
	nn := queryMatchesOracle(t, db, `SELECT COUNT(x) FROM nt`).Rows[0][0].AsInt()
	if a+b != nn {
		t.Fatalf("NULL partition broken: %d + %d != %d non-null", a, b, nn)
	}
	if nn != 1100-220 {
		t.Fatalf("COUNT(x) = %d, want %d", nn, 1100-220)
	}
	res := queryMatchesOracle(t, db, `SELECT COUNT(*) FROM nt WHERE s IS NULL`)
	if got := res.Rows[0][0].AsInt(); got != 275 {
		t.Fatalf("IS NULL count = %d, want 275", got)
	}
	// NULL never matches IN lists; NOT IN over a NULL subject is unknown.
	res = queryMatchesOracle(t, db, `SELECT COUNT(*) FROM nt WHERE x IN (1, 2) OR x NOT IN (0, 3)`)
	if res.Rows[0][0].AsInt() == 0 {
		t.Fatal("IN/NOT IN over NULLs returned nothing")
	}
	// Grouped aggregate keyed by a NULL-bearing column: NULL forms its
	// own group in GROUP BY.
	res = queryMatchesOracle(t, db, `SELECT x, COUNT(*), SUM(id) FROM nt GROUP BY x ORDER BY x`)
	if len(res.Rows) != 8 { // 7 values + the NULL group
		t.Fatalf("groups = %d, want 8", len(res.Rows))
	}
}

// TestExplainSelect checks the EXPLAIN surface: join order, access
// path, and estimated vs actual cardinalities for a compiled join.
func TestExplainSelect(t *testing.T) {
	db := testDB(t)
	ep, err := db.ExplainSelect(`SELECT o.o_orderkey, l.l_quantity FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND l.l_shipdate >= DATE '1998-02-01'`)
	if err != nil {
		t.Fatalf("ExplainSelect: %v", err)
	}
	if len(ep.Scans) != 2 || len(ep.JoinOrder) != 2 {
		t.Fatalf("scans = %d, join order = %v", len(ep.Scans), ep.JoinOrder)
	}
	for _, s := range ep.Scans {
		if s.ActualRows < 0 {
			t.Fatalf("scan %s: actual rows not measured", s.Table)
		}
		if s.EstRows < 0 {
			t.Fatalf("scan %s: negative estimate", s.Table)
		}
	}
	text := ep.Render()
	for _, want := range []string{"join order:", "est=", "actual="} {
		if !strings.Contains(text, want) {
			t.Fatalf("Render missing %q:\n%s", want, text)
		}
	}
	// Non-SELECT and unparsable statements are rejected, not rendered.
	if _, err := db.ExplainSelect(`DELETE FROM orders`); err == nil {
		t.Fatal("ExplainSelect accepted a DELETE")
	}
}

// TestDateVsStringColumn covers a DATE compared with a non-constant
// string in every operator and both operand orders: strings that parse
// as dates compare as dates, the rest order by kind tag, NULLs are
// unknown. (The batch compiler used to reject this shape.)
func TestDateVsStringColumn(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE ds (id INT, d DATE, s STRING)`)
	texts := []string{"1997-06-15", "1997-06-14", "1997-06-16", "not a date", "", "1997-6-15x"}
	for i := 0; i < 1100; i++ { // straddles one batch boundary
		d, s := sqlval.Date(int64(10025+i%3)), sqlval.Str(texts[i%len(texts)])
		if i%7 == 0 {
			d = sqlval.Null()
		}
		if i%11 == 0 {
			s = sqlval.Null()
		}
		if err := db.InsertRow("ds", sqlval.Row{sqlval.Int(int64(i)), d, s}); err != nil {
			t.Fatalf("InsertRow: %v", err)
		}
	}
	matched := 0
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		matched += len(queryMatchesOracle(t, db, "SELECT id FROM ds WHERE d "+op+" s").Rows)
		matched += len(queryMatchesOracle(t, db, "SELECT id FROM ds WHERE s "+op+" d").Rows)
	}
	if matched == 0 {
		t.Fatal("no date-vs-string comparison ever matched")
	}
	queryMatchesOracle(t, db, `SELECT d < s, COUNT(*) FROM ds GROUP BY d < s ORDER BY d < s`)
}

// TestKeylessJoin covers join levels without equi-keys: a plain cross
// product, one filtered by a residual predicate, and a three-table join
// whose middle level has no key. Joined row counts exceed one batch.
func TestKeylessJoin(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE ka (x INT, p INT)`)
	mustExec(t, db, `CREATE TABLE kb (y INT)`)
	mustExec(t, db, `CREATE TABLE kc (z INT, q INT)`)
	for i := 0; i < 40; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO ka VALUES (%d, %d)`, i, i%4))
		mustExec(t, db, fmt.Sprintf(`INSERT INTO kb VALUES (%d)`, i*2))
	}
	for i := 0; i < 4; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO kc VALUES (%d, %d)`, i*100, i))
	}
	if n := len(queryMatchesOracle(t, db, `SELECT x, y FROM ka, kb`).Rows); n != 1600 {
		t.Fatalf("cross product rows = %d, want 1600", n)
	}
	res := queryMatchesOracle(t, db, `SELECT x, y FROM ka, kb WHERE x < y AND x + y > 20`)
	if len(res.Rows) == 0 || len(res.Rows) == 1600 {
		t.Fatalf("residual kept %d of 1600 rows", len(res.Rows))
	}
	queryMatchesOracle(t, db, `SELECT x, y, z FROM ka, kb, kc WHERE ka.p = kc.q AND y > x ORDER BY x, y, z`)
	queryMatchesOracle(t, db, `SELECT COUNT(*), SUM(y) FROM ka, kb WHERE x > y`)
}

// TestKindMismatchIsAnError pins the guarantee that replaced the silent
// row-mode rerun: rows whose values contradict their binding's declared
// kinds (only engine-synthesized rows can; tables coerce on write) fail
// with an error naming the column and both kinds.
func TestKindMismatchIsAnError(t *testing.T) {
	b := []Binding{{Alias: "partial", Schema: &Schema{Table: "partial", Columns: []Column{
		{Name: "g0", Kind: sqlval.KindInt},
		{Name: "a0", Kind: sqlval.KindDate},
	}}}}
	rows := []sqlval.Row{
		{sqlval.Int(1), sqlval.Null()},
		{sqlval.Int(1), sqlval.Float(10042)},
	}
	for _, sql := range []string{
		`SELECT g0, SUM(a0) FROM partial GROUP BY g0`,
		`SELECT a0 + 1 FROM partial`,
	} {
		stmt, err := ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ProjectRows(stmt, b, rows)
		if err == nil {
			t.Fatalf("%q over a FLOAT in a DATE column succeeded", sql)
		}
		for _, want := range []string{"partial.a0", "DATE", "FLOAT"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%q: error %q does not name %s", sql, err, want)
			}
		}
	}
	// Values that match their declaration — or are NULL — still project.
	stmt, _ := ParseSelect(`SELECT g0, MAX(a0) FROM partial GROUP BY g0`)
	rows[1][1] = sqlval.Date(10042)
	if res, err := ProjectRows(stmt, b, rows); err != nil || len(res.Rows) != 1 {
		t.Fatalf("well-kinded rows: %v, %v", res, err)
	}
}

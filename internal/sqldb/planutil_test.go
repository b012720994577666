package sqldb

import (
	"strings"
	"testing"

	"bestpeer/internal/sqlval"
)

func liSchema() *Schema {
	return &Schema{Table: "lineitem", Columns: []Column{
		{Name: "l_orderkey", Kind: sqlval.KindInt},
		{Name: "l_qty", Kind: sqlval.KindInt},
		{Name: "l_price", Kind: sqlval.KindFloat},
	}}
}

func ordSchema() *Schema {
	return &Schema{Table: "orders", Columns: []Column{
		{Name: "o_orderkey", Kind: sqlval.KindInt},
		{Name: "o_total", Kind: sqlval.KindFloat},
	}}
}

func TestNeededColumns(t *testing.T) {
	stmt, err := ParseSelect(`SELECT l.l_price, SUM(o.o_total) FROM lineitem l, orders o
		WHERE l.l_orderkey = o.o_orderkey AND l.l_qty > 5 GROUP BY l.l_price`)
	if err != nil {
		t.Fatal(err)
	}
	li := NeededColumns(stmt, stmt.From[0], liSchema())
	if strings.Join(li, ",") != "l_orderkey,l_qty,l_price" {
		t.Errorf("lineitem needed = %v", li)
	}
	ord := NeededColumns(stmt, stmt.From[1], ordSchema())
	if strings.Join(ord, ",") != "o_orderkey,o_total" {
		t.Errorf("orders needed = %v", ord)
	}
}

func TestNeededColumnsStar(t *testing.T) {
	stmt, _ := ParseSelect(`SELECT * FROM lineitem`)
	got := NeededColumns(stmt, stmt.From[0], liSchema())
	if len(got) != 3 {
		t.Errorf("star needed = %v", got)
	}
	stmt2, _ := ParseSelect(`SELECT l_price FROM lineitem WHERE mystery > 0`)
	got2 := NeededColumns(stmt2, stmt2.From[0], liSchema())
	// Unresolvable unqualified ref is ignored (it belongs elsewhere or
	// errors later); only the resolvable ones are pushed.
	if strings.Join(got2, ",") != "l_price" {
		t.Errorf("needed = %v", got2)
	}
}

func TestBuildSubQueryStripsQualifiers(t *testing.T) {
	stmt, _ := ParseSelect(`SELECT l.l_price FROM lineitem l, orders o WHERE l.l_qty > 5 AND l.l_orderkey = o.o_orderkey`)
	perTable, cross := SplitConjunctsPerTable(stmt.Where, stmt.From, []*Schema{liSchema(), ordSchema()})
	if len(perTable[0]) != 1 || len(perTable[1]) != 0 || len(cross) != 1 {
		t.Fatalf("split = %v / %v", perTable, cross)
	}
	sub := BuildSubQuery(stmt.From[0], []string{"l_orderkey", "l_price"}, perTable[0])
	sql := "SELECT l_orderkey, l_price FROM lineitem WHERE " + sub.Where.String()
	if strings.Contains(sql, "l.") {
		t.Errorf("qualifier not stripped: %s", sql)
	}
	if _, err := ParseSelect(sql); err != nil {
		t.Errorf("rendered subquery does not parse: %v", err)
	}
}

func TestEquiJoinCondsAndHash(t *testing.T) {
	stmt, _ := ParseSelect(`SELECT l.l_price FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey AND l.l_price > o.o_total`)
	lb := []Binding{{Alias: "l", Schema: liSchema()}}
	rb := []Binding{{Alias: "o", Schema: ordSchema()}}
	lk, rk, rest := EquiJoinConds(Conjuncts(stmt.Where), lb, rb)
	if len(lk) != 1 || len(rk) != 1 || len(rest) != 1 {
		t.Fatalf("equi = %v/%v rest=%v", lk, rk, rest)
	}
	lrow := sqlval.Row{sqlval.Int(7), sqlval.Int(1), sqlval.Float(10)}
	rrow := sqlval.Row{sqlval.Int(7), sqlval.Float(5)}
	lhash, levals := CompileJoinKey(lb, lk)
	rhash, revals := CompileJoinKey(rb, rk)
	lh, err := lhash(lrow)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := rhash(rrow)
	if err != nil {
		t.Fatal(err)
	}
	if lh != rh {
		t.Error("equal keys hash differently")
	}
	// Offset-resolved keys must hash like expression-evaluated ones.
	if offs, ok := JoinKeyOffsets(lb, lk); !ok || HashKeyOffsets(lrow, offs) != lh {
		t.Errorf("HashKeyOffsets disagrees with CompileJoinKey's hasher (offs %v, ok %v)", offs, ok)
	}
	lv, lerr := levals[0](lrow)
	rv, rerr := revals[0](rrow)
	if lerr != nil || rerr != nil || !sqlval.Equal(lv, rv) {
		t.Errorf("key evaluators = %v (%v), %v (%v)", lv, lerr, rv, rerr)
	}
}

func TestProjectRowsGroupedOverBindings(t *testing.T) {
	stmt, _ := ParseSelect(`SELECT l_qty, SUM(l_price) AS total FROM lineitem GROUP BY l_qty ORDER BY l_qty`)
	b := []Binding{{Alias: "lineitem", Schema: liSchema()}}
	rows := []sqlval.Row{
		{sqlval.Int(1), sqlval.Int(10), sqlval.Float(1.5)},
		{sqlval.Int(2), sqlval.Int(10), sqlval.Float(2.5)},
		{sqlval.Int(3), sqlval.Int(20), sqlval.Float(4.0)},
	}
	res, err := ProjectRows(stmt, b, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if res.Rows[0][1].AsFloat() != 4.0 || res.Rows[1][1].AsFloat() != 4.0 {
		t.Errorf("sums = %v, %v", res.Rows[0][1], res.Rows[1][1])
	}
	if res.Columns[1] != "total" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestCompiledClosuresOverBindings(t *testing.T) {
	b := []Binding{{Alias: "l", Schema: liSchema()}, {Alias: "o", Schema: ordSchema()}}
	stmt, _ := ParseSelect(`SELECT l.l_price - o.o_total FROM lineitem l, orders o WHERE l.l_price > o.o_total`)
	row := sqlval.Row{sqlval.Int(1), sqlval.Int(1), sqlval.Float(10), sqlval.Int(1), sqlval.Float(5)}
	ok, err := CompilePredicates(b, Conjuncts(stmt.Where))(row)
	if err != nil || !ok {
		t.Errorf("pred = %v, %v", ok, err)
	}
	if v, err := CompileExprOver(b, stmt.Items[0].Expr)(row); err != nil || v.AsFloat() != 5 {
		t.Errorf("expr = %v, %v", v, err)
	}
	if ok, err := CompilePredicates(b, nil)(row); err != nil || !ok {
		t.Errorf("empty conjunction = %v, %v", ok, err)
	}
	if !Resolvable(b, stmt.Where) {
		t.Error("Resolvable = false")
	}
	if Resolvable(b[:1], stmt.Where) {
		t.Error("cross-table expr resolvable in one binding")
	}
	// An expression that does not compile fails when evaluated, with the
	// compile error, from every closure built over it.
	ghost := &ColumnRef{Column: "ghost"}
	if _, err := CompileExprOver(b, ghost)(row); err == nil || !strings.Contains(err.Error(), "unknown column ghost") {
		t.Errorf("CompileExprOver(ghost) err = %v", err)
	}
	if _, err := CompilePredicates(b, []Expr{ghost})(row); err == nil || !strings.Contains(err.Error(), "unknown column ghost") {
		t.Errorf("CompilePredicates(ghost) err = %v", err)
	}
	hash, evals := CompileJoinKey(b, []Expr{ghost})
	if _, err := hash(row); err == nil {
		t.Error("CompileJoinKey(ghost) hasher succeeded")
	}
	if _, err := evals[0](row); err == nil {
		t.Error("CompileJoinKey(ghost) evaluator succeeded")
	}
}

func TestSubSchema(t *testing.T) {
	sub, err := SubSchema(liSchema(), []string{"l_price", "l_orderkey"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Columns) != 2 || sub.Columns[0].Name != "l_price" {
		t.Errorf("sub = %+v", sub)
	}
	if _, err := SubSchema(liSchema(), []string{"ghost"}); err == nil {
		t.Error("bad column accepted")
	}
}

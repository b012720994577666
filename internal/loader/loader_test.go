package loader

import (
	"fmt"
	"testing"

	"bestpeer/internal/erp"
	"bestpeer/internal/schemamap"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/sqlval"
)

// testSetup builds a production system with a local schema that differs
// from the global one in table name, column names, column order, and
// vocabulary — the full schema-mapping surface.
func testSetup(t *testing.T) (*erp.System, *schemamap.Mapping, *sqldb.DB, func(string) *sqldb.Schema) {
	t.Helper()
	sys := erp.NewSystem("SAP")
	localSchema := &sqldb.Schema{
		Table: "vbak_orders",
		Columns: []sqldb.Column{
			{Name: "status_code", Kind: sqlval.KindString},
			{Name: "order_id", Kind: sqlval.KindInt},
			{Name: "net_value", Kind: sqlval.KindFloat},
		},
	}
	if err := sys.CreateTable(localSchema); err != nil {
		t.Fatal(err)
	}
	globalSchema := &sqldb.Schema{
		Table: "orders",
		Columns: []sqldb.Column{
			{Name: "o_orderkey", Kind: sqlval.KindInt},
			{Name: "o_totalprice", Kind: sqlval.KindFloat},
			{Name: "o_orderstatus", Kind: sqlval.KindString},
			{Name: "o_comment", Kind: sqlval.KindString}, // unmapped -> NULL
		},
	}
	global := func(name string) *sqldb.Schema {
		if name == "orders" {
			return globalSchema
		}
		return nil
	}
	mapping := &schemamap.Mapping{
		System: "SAP",
		Tables: []schemamap.TableMapping{{
			LocalTable:  "vbak_orders",
			GlobalTable: "orders",
			Columns: []schemamap.ColumnMapping{
				{Local: "order_id", Global: "o_orderkey"},
				{Local: "net_value", Global: "o_totalprice"},
				{Local: "status_code", Global: "o_orderstatus",
					Values: map[string]string{"03": "SHIPPED", "01": "OPEN"}},
			},
		}},
	}
	return sys, mapping, sqldb.NewDB(), global
}

func insertOrder(t *testing.T, sys *erp.System, status string, id int, value float64) {
	t.Helper()
	if err := sys.Insert("vbak_orders", sqlval.Row{sqlval.Str(status), sqlval.Int(int64(id)), sqlval.Float(value)}); err != nil {
		t.Fatal(err)
	}
}

func TestInitialLoadTransforms(t *testing.T) {
	sys, mapping, dest, global := testSetup(t)
	insertOrder(t, sys, "03", 1, 100.5)
	insertOrder(t, sys, "01", 2, 200.0)

	l, err := New(sys, mapping, dest, global)
	if err != nil {
		t.Fatal(err)
	}
	d, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.Inserted != 2 || d.Deleted != 0 || d.TablesLoaded != 1 {
		t.Fatalf("delta = %+v", d)
	}
	res, err := dest.Query(`SELECT o_orderkey, o_totalprice, o_orderstatus, o_comment FROM orders ORDER BY o_orderkey`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r := res.Rows[0]
	if r[0].AsInt() != 1 || r[1].AsFloat() != 100.5 {
		t.Errorf("row = %v", r)
	}
	if r[2].AsString() != "SHIPPED" {
		t.Errorf("value mapping not applied: %v", r[2])
	}
	if !r[3].IsNull() {
		t.Errorf("unmapped column = %v, want NULL", r[3])
	}
}

func TestRefreshDetectsInsert(t *testing.T) {
	sys, mapping, dest, global := testSetup(t)
	insertOrder(t, sys, "01", 1, 10)
	l, _ := New(sys, mapping, dest, global)
	if _, err := l.Run(); err != nil {
		t.Fatal(err)
	}
	insertOrder(t, sys, "01", 2, 20)
	d, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.Inserted != 1 || d.Deleted != 0 || d.Unchanged != 1 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestRefreshDetectsDelete(t *testing.T) {
	sys, mapping, dest, global := testSetup(t)
	insertOrder(t, sys, "01", 1, 10)
	insertOrder(t, sys, "01", 2, 20)
	l, _ := New(sys, mapping, dest, global)
	if _, err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exec(`DELETE FROM vbak_orders WHERE order_id = 1`); err != nil {
		t.Fatal(err)
	}
	d, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.Deleted != 1 || d.Inserted != 0 || d.Unchanged != 1 {
		t.Fatalf("delta = %+v", d)
	}
	res, _ := dest.Query(`SELECT COUNT(*) FROM orders`)
	if res.Rows[0][0].AsInt() != 1 {
		t.Errorf("dest rows = %v", res.Rows[0][0])
	}
}

func TestRefreshDetectsUpdateAsDeletePlusInsert(t *testing.T) {
	sys, mapping, dest, global := testSetup(t)
	insertOrder(t, sys, "01", 1, 10)
	l, _ := New(sys, mapping, dest, global)
	if _, err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exec(`UPDATE vbak_orders SET net_value = 99.0 WHERE order_id = 1`); err != nil {
		t.Fatal(err)
	}
	d, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.Deleted != 1 || d.Inserted != 1 || d.Unchanged != 0 {
		t.Fatalf("delta = %+v", d)
	}
	res, _ := dest.Query(`SELECT o_totalprice FROM orders`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsFloat() != 99.0 {
		t.Errorf("dest after update = %+v", res.Rows)
	}
}

func TestRefreshNoChangesIsNoop(t *testing.T) {
	sys, mapping, dest, global := testSetup(t)
	for i := 0; i < 50; i++ {
		insertOrder(t, sys, "01", i, float64(i))
	}
	l, _ := New(sys, mapping, dest, global)
	if _, err := l.Run(); err != nil {
		t.Fatal(err)
	}
	d, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.Inserted != 0 || d.Deleted != 0 || d.Unchanged != 50 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestDuplicateTuplesHandled(t *testing.T) {
	sys, mapping, dest, global := testSetup(t)
	insertOrder(t, sys, "01", 7, 1.0)
	insertOrder(t, sys, "01", 7, 1.0) // identical tuple
	l, _ := New(sys, mapping, dest, global)
	// Snapshot differentials report the *net* effect (delete both +
	// re-insert one diffs to a single delete); the CDC twin below
	// checks the literal-event accounting.
	d, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.Inserted != 2 {
		t.Fatalf("delta = %+v", d)
	}
	if _, err := sys.Exec(`DELETE FROM vbak_orders WHERE order_id = 7`); err != nil {
		t.Fatal(err)
	}
	// Re-insert just one copy: net effect is one delete. The feed gap
	// sends the refresh down the snapshot path.
	insertOrder(t, sys, "01", 7, 1.0)
	sys.AckFeed(sys.FeedSeq())
	d, err = l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.Deleted != 1 || d.Inserted != 0 || d.Unchanged != 1 || d.Outcomes[0].Mode != "snapshot" {
		t.Fatalf("delta = %+v", d)
	}
}

func TestChurnConvergence(t *testing.T) {
	sys, mapping, dest, global := testSetup(t)
	l, _ := New(sys, mapping, dest, global)
	live := map[int]float64{}
	next := 0
	for round := 0; round < 10; round++ {
		for k := 0; k < 5; k++ {
			insertOrder(t, sys, "01", next, float64(next))
			live[next] = float64(next)
			next++
		}
		if round%2 == 1 {
			victim := next - 3
			if _, err := sys.Exec(fmt.Sprintf(`DELETE FROM vbak_orders WHERE order_id = %d`, victim)); err != nil {
				t.Fatal(err)
			}
			delete(live, victim)
		}
		if _, err := l.Run(); err != nil {
			t.Fatal(err)
		}
		res, err := dest.Query(`SELECT COUNT(*) FROM orders`)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].AsInt(); got != int64(len(live)) {
			t.Fatalf("round %d: dest has %d rows, want %d", round, got, len(live))
		}
	}
}

func TestNewRejectsBadMapping(t *testing.T) {
	sys, mapping, dest, global := testSetup(t)
	mapping.Tables[0].Columns = append(mapping.Tables[0].Columns,
		schemamap.ColumnMapping{Local: "no_such_col", Global: "o_comment"})
	if _, err := New(sys, mapping, dest, global); err == nil {
		t.Error("bad mapping accepted")
	}
}

func TestDuplicateTuplesHandledCDC(t *testing.T) {
	sys, mapping, dest, global := testSetup(t)
	insertOrder(t, sys, "01", 7, 1.0)
	insertOrder(t, sys, "01", 7, 1.0) // identical tuple
	l, _ := New(sys, mapping, dest, global)
	if _, err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exec(`DELETE FROM vbak_orders WHERE order_id = 7`); err != nil {
		t.Fatal(err)
	}
	insertOrder(t, sys, "01", 7, 1.0)
	// CDC reports the events as they happened: two deletes, one insert.
	d, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.Events != 3 || d.Deleted != 2 || d.Inserted != 1 {
		t.Fatalf("delta = %+v", d)
	}
	res, _ := dest.Query(`SELECT COUNT(*) FROM orders`)
	if res.Rows[0][0].AsInt() != 1 {
		t.Errorf("dest rows = %v", res.Rows[0][0])
	}
}

// uniqueSetup is testSetup with a primary key on the global table, so a
// mid-merge duplicate-key insert can be injected to fail the pass.
func uniqueSetup(t *testing.T) (*erp.System, *schemamap.Mapping, *sqldb.DB, func(string) *sqldb.Schema) {
	t.Helper()
	sys, mapping, dest, _ := testSetup(t)
	globalSchema := &sqldb.Schema{
		Table: "orders",
		Columns: []sqldb.Column{
			{Name: "o_orderkey", Kind: sqlval.KindInt},
			{Name: "o_totalprice", Kind: sqlval.KindFloat},
			{Name: "o_orderstatus", Kind: sqlval.KindString},
			{Name: "o_comment", Kind: sqlval.KindString},
		},
		PrimaryKey: "o_orderkey",
	}
	global := func(name string) *sqldb.Schema {
		if name == "orders" {
			return globalSchema
		}
		return nil
	}
	return sys, mapping, dest, global
}

func destOrderKeys(t *testing.T, dest *sqldb.DB) []int64 {
	t.Helper()
	res, err := dest.Query(`SELECT o_orderkey FROM orders ORDER BY o_orderkey`)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		keys[i] = r[0].AsInt()
	}
	return keys
}

// TestMidMergeFailureRollsBack is the partial-apply regression test:
// a pass that dies mid-merge (duplicate primary key after a delete
// already applied) must roll back completely, and the retried pass
// must succeed without duplicating inserts or hitting stale snapshot
// row IDs — whether the refresh tails the change feed or, after a feed
// gap, diffs snapshots.
func TestMidMergeFailureRollsBack(t *testing.T) {
	for _, name := range []string{"snapshot", "cdc"} {
		t.Run(name, func(t *testing.T) {
			sys, mapping, dest, global := uniqueSetup(t)
			insertOrder(t, sys, "01", 1, 10)
			insertOrder(t, sys, "01", 2, 20)
			l, err := New(sys, mapping, dest, global)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Run(); err != nil {
				t.Fatal(err)
			}
			// refresh runs one pass; the snapshot variant first truncates
			// the feed past the loader's mark, as retention would.
			refresh := func() (Delta, error) {
				if name == "snapshot" {
					sys.AckFeed(sys.FeedSeq())
				}
				return l.Run()
			}

			// Business activity whose merge fails half-way: row 1 is
			// deleted (applies cleanly), then two rows share o_orderkey=3
			// with different values, so the second insert violates the
			// primary key after the delete and first insert went in.
			if _, err := sys.Exec(`DELETE FROM vbak_orders WHERE order_id = 1`); err != nil {
				t.Fatal(err)
			}
			insertOrder(t, sys, "01", 3, 30)
			insertOrder(t, sys, "01", 3, 31)

			d, err := refresh()
			if err == nil {
				t.Fatalf("conflicting pass succeeded: %+v", d)
			}
			if got := destOrderKeys(t, dest); len(got) != 2 || got[0] != 1 || got[1] != 2 {
				t.Fatalf("partial apply leaked: dest keys = %v", got)
			}

			// Fix production data and retry: the pass must apply exactly
			// the surviving changes, with no duplicates and no stale row
			// IDs left over from the aborted merge.
			if _, err := sys.Exec(`DELETE FROM vbak_orders WHERE net_value = 31.0`); err != nil {
				t.Fatal(err)
			}
			d, err = refresh()
			if err != nil {
				t.Fatalf("retry after rollback: %v (delta %+v)", err, d)
			}
			if name == "snapshot" && d.Outcomes[0].Mode != "snapshot" {
				t.Fatalf("retry outcome = %+v, want a snapshot pass", d.Outcomes[0])
			}
			if got := destOrderKeys(t, dest); len(got) != 2 || got[0] != 2 || got[1] != 3 {
				t.Fatalf("retry converged wrong: dest keys = %v", got)
			}
		})
	}
}

// TestCDCModeUsesFeed checks that a refresh consumes change events
// instead of re-diffing, and that per-table outcomes are honest: a
// no-change pass reports TablesUnchanged, not TablesLoaded.
func TestCDCModeUsesFeed(t *testing.T) {
	sys, mapping, dest, global := testSetup(t)
	insertOrder(t, sys, "01", 1, 10)
	l, _ := New(sys, mapping, dest, global)
	d, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Outcomes) != 1 || d.Outcomes[0].Mode != "initial" || d.TablesLoaded != 1 {
		t.Fatalf("initial delta = %+v", d)
	}

	// No-op refresh: zero events, table counted as unchanged.
	d, err = l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.Events != 0 || d.TablesLoaded != 0 || d.TablesUnchanged != 1 || d.Unchanged != 1 {
		t.Fatalf("noop delta = %+v", d)
	}
	if d.Outcomes[0].Mode != "cdc" {
		t.Fatalf("noop outcome = %+v", d.Outcomes[0])
	}

	// Mixed activity rides the feed: insert + update + delete.
	insertOrder(t, sys, "01", 2, 20)
	if _, err := sys.Exec(`UPDATE vbak_orders SET net_value = 11.0 WHERE order_id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exec(`DELETE FROM vbak_orders WHERE order_id = 2`); err != nil {
		t.Fatal(err)
	}
	d, err = l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.Events != 3 || d.Inserted != 2 || d.Deleted != 2 {
		t.Fatalf("cdc delta = %+v", d)
	}
	res, _ := dest.Query(`SELECT o_orderkey, o_totalprice FROM orders`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 1 || res.Rows[0][1].AsFloat() != 11.0 {
		t.Fatalf("dest after cdc = %+v", res.Rows)
	}
}

// TestCDCFeedGapFallsBackToSnapshot truncates the feed past the
// loader's position: the next pass must detect the gap and converge via
// a full snapshot diff.
func TestCDCFeedGapFallsBackToSnapshot(t *testing.T) {
	sys, mapping, dest, global := testSetup(t)
	insertOrder(t, sys, "01", 1, 10)
	l, _ := New(sys, mapping, dest, global)
	if _, err := l.Run(); err != nil {
		t.Fatal(err)
	}
	insertOrder(t, sys, "01", 2, 20)
	sys.AckFeed(sys.FeedSeq()) // retention moved past the loader's mark
	d, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.Events != 0 || d.Inserted != 1 || d.Unchanged != 1 {
		t.Fatalf("fallback delta = %+v", d)
	}
	if d.Outcomes[0].Mode != "snapshot" {
		t.Fatalf("fallback outcome = %+v", d.Outcomes[0])
	}
	// The snapshot pass re-anchors the feed position; CDC resumes.
	insertOrder(t, sys, "01", 3, 30)
	d, err = l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.Events != 1 || d.Inserted != 1 || d.Outcomes[0].Mode != "cdc" {
		t.Fatalf("resumed delta = %+v", d)
	}
}

// TestCDCEquivalentToSnapshot churns one system and loads it through
// two loaders — one on the feed, one sent down the snapshot path by a
// feed gap every round — asserting identical query results every round.
func TestCDCEquivalentToSnapshot(t *testing.T) {
	sys, mapping, destSnap, global := testSetup(t)
	destCDC := sqldb.NewDB()
	ls, err := New(sys, mapping, destSnap, global)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := New(sys, mapping, destCDC, global)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for round := 0; round < 8; round++ {
		for k := 0; k < 4; k++ {
			insertOrder(t, sys, "01", next, float64(next))
			next++
		}
		if round > 0 {
			if _, err := sys.Exec(fmt.Sprintf(`DELETE FROM vbak_orders WHERE order_id = %d`, round*3)); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Exec(fmt.Sprintf(`UPDATE vbak_orders SET net_value = 999.0 WHERE order_id = %d`, round*2)); err != nil {
				t.Fatal(err)
			}
		}
		// The CDC loader consumes the feed up to its head; acking the head
		// leaves it caught up but puts the snapshot loader's mark behind
		// the retained tail.
		dc, err := lc.Run()
		if err != nil {
			t.Fatal(err)
		}
		sys.AckFeed(sys.FeedSeq())
		ds, err := ls.Run()
		if err != nil {
			t.Fatal(err)
		}
		if round > 0 && (dc.Outcomes[0].Mode != "cdc" || ds.Outcomes[0].Mode != "snapshot") {
			t.Fatalf("round %d: cdc loader ran %q, snapshot loader ran %q", round, dc.Outcomes[0].Mode, ds.Outcomes[0].Mode)
		}
		q := `SELECT o_orderkey, o_totalprice, o_orderstatus FROM orders ORDER BY o_orderkey, o_totalprice`
		a, err := destSnap.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := destCDC.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
			t.Fatalf("round %d: snapshot %v vs cdc %v", round, a.Rows, b.Rows)
		}
	}
}

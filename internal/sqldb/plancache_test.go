package sqldb

import (
	"fmt"
	"sync"
	"testing"
)

// TestPlanCacheHitsAndCounters verifies the repeat-statement hot path:
// the second execution of the same SQL text hits the cache and skips
// parse and compile.
func TestPlanCacheHitsAndCounters(t *testing.T) {
	db := testDB(t)
	sql := `SELECT o_orderkey FROM orders WHERE o_totalprice > 500`
	hits0, misses0 := planCacheHits.Value(), planCacheMisses.Value()
	first := mustExec(t, db, sql)
	if got := planCacheMisses.Value() - misses0; got != 1 {
		t.Fatalf("cold statement: misses = %d, want 1", got)
	}
	second := mustExec(t, db, sql)
	if got := planCacheHits.Value() - hits0; got != 1 {
		t.Fatalf("repeat statement: hits = %d, want 1", got)
	}
	if rowsKey(first) != rowsKey(second) || first.Stats != second.Stats {
		t.Fatal("cached plan returned a different result")
	}
}

// TestPlanCacheInvalidatedByCreateIndex is the stale-plan regression
// test: a plan compiled with a full scan must be recompiled — not
// replayed — after CREATE INDEX changes the access-path choice.
func TestPlanCacheInvalidatedByCreateIndex(t *testing.T) {
	db := testDB(t)
	sql := `SELECT o_custkey FROM orders WHERE o_custkey = 3`
	before := mustExec(t, db, sql)
	if before.Stats.IndexUsed {
		t.Fatal("no index on o_custkey yet; expected a full scan")
	}
	mustExec(t, db, sql) // ensure the full-scan plan is cached and warm
	inval0 := planCacheInvalidated.Value()
	mustExec(t, db, `CREATE INDEX idx_cust ON orders (o_custkey)`)
	if planCacheInvalidated.Value() == inval0 {
		t.Fatal("CREATE INDEX did not invalidate the plan cache")
	}
	after := mustExec(t, db, sql)
	if !after.Stats.IndexUsed {
		t.Fatal("stale plan: same SQL still full-scans after CREATE INDEX")
	}
	if rowsKey(before) != rowsKey(after) {
		t.Fatal("rows changed across recompilation")
	}
}

// TestPlanCacheInvalidatedByTableDDL re-creates a table with a wider
// schema under the same name: the cached star-select must notice.
func TestPlanCacheInvalidatedByTableDDL(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	sql := `SELECT * FROM t`
	res := mustExec(t, db, sql)
	mustExec(t, db, sql)
	if len(res.Columns) != 1 {
		t.Fatalf("columns = %v", res.Columns)
	}
	if !db.DropTable("t") {
		t.Fatal("drop failed")
	}
	mustExec(t, db, `CREATE TABLE t (a INT, b INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (2, 3)`)
	res = mustExec(t, db, sql)
	if len(res.Columns) != 2 || len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
		t.Fatalf("stale plan survived DROP+CREATE: columns %v rows %v", res.Columns, res.Rows)
	}
}

// TestPlanCacheScopedInvalidation verifies table-scoped invalidation:
// DDL against one table (DROP TABLE, CREATE INDEX) must drop only the
// cached plans referencing it — survivors keep hitting — and the event
// counters must distinguish scoped from full invalidations.
func TestPlanCacheScopedInvalidation(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE scratch (x INT)`)
	mustExec(t, db, `INSERT INTO scratch VALUES (1)`)
	ordersSQL := `SELECT o_orderkey FROM orders WHERE o_totalprice > 500`
	scratchSQL := `SELECT x FROM scratch`
	// Warm both: scratch's first stats build bumps the global statsVer
	// (staling the orders entry), so run orders again afterwards to
	// cache it under the settled statsVer.
	mustExec(t, db, ordersSQL)
	mustExec(t, db, scratchSQL)
	mustExec(t, db, ordersSQL)

	hits0 := planCacheHits.Value()
	full0, scoped0 := planCacheInvalFull.Value(), planCacheInvalScoped.Value()

	// DROP TABLE scratch: scoped — the orders plan survives and hits.
	if !db.DropTable("scratch") {
		t.Fatal("drop failed")
	}
	if got := planCacheInvalScoped.Value() - scoped0; got != 1 {
		t.Fatalf("scoped invalidation events = %d, want 1", got)
	}
	if got := planCacheInvalFull.Value() - full0; got != 0 {
		t.Fatalf("full invalidation events = %d, want 0", got)
	}
	mustExec(t, db, ordersSQL)
	if got := planCacheHits.Value() - hits0; got != 1 {
		t.Fatalf("orders plan did not survive scoped DROP TABLE (hits delta %d)", got)
	}

	// CREATE INDEX on lineitem: scoped again; orders still survives.
	mustExec(t, db, `CREATE INDEX idx_li ON lineitem (l_orderkey)`)
	if got := planCacheInvalScoped.Value() - scoped0; got != 2 {
		t.Fatalf("scoped invalidation events = %d, want 2", got)
	}
	mustExec(t, db, ordersSQL)
	if got := planCacheHits.Value() - hits0; got != 2 {
		t.Fatalf("orders plan did not survive CREATE INDEX on lineitem (hits delta %d)", got)
	}

	// CREATE TABLE changes the whole-schema view (plans compiled before
	// the table existed may now resolve differently): full invalidation.
	mustExec(t, db, `CREATE TABLE another (y INT)`)
	if got := planCacheInvalFull.Value() - full0; got != 1 {
		t.Fatalf("full invalidation events = %d, want 1", got)
	}
	res := mustExec(t, db, ordersSQL)
	if len(res.Rows) == 0 {
		t.Fatal("orders query broke after invalidation churn")
	}
}

// TestVersionsMonotonicAcrossDropRecreate guards the serving tier's
// cache keying: the (schema, data) version pair must never repeat, even
// when DROP TABLE erases a table's mutation counter and a re-CREATE
// starts a fresh one.
func TestVersionsMonotonicAcrossDropRecreate(t *testing.T) {
	db := NewDB()
	seen := make(map[[2]uint64]int)
	record := func(step int) {
		s, d := db.Versions()
		k := [2]uint64{s, d}
		if prev, dup := seen[k]; dup {
			t.Fatalf("version pair %v repeated (steps %d and %d)", k, prev, step)
		}
		seen[k] = step
	}
	record(0)
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	record(1)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	record(2)
	mustExec(t, db, `INSERT INTO t VALUES (2)`)
	record(3)
	if !db.DropTable("t") {
		t.Fatal("drop failed")
	}
	record(4)
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	record(5)
	mustExec(t, db, `INSERT INTO t VALUES (3)`)
	record(6)
}

// TestPlanCacheEviction bounds the cache: past capacity the least
// recently used entry goes first, and a lookup refreshes recency.
func TestPlanCacheEviction(t *testing.T) {
	c := newPlanCache(2)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("q%d", i)
		if i == 2 {
			c.lookup("q0") // refresh q0 so q1 is the LRU victim
		}
		c.store(&planEntry{key: key})
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if c.lookup("q1") != nil {
		t.Fatal("LRU victim q1 still cached")
	}
	if c.lookup("q0") == nil || c.lookup("q2") == nil {
		t.Fatal("recently used entries evicted")
	}
	c.invalidate()
	if c.len() != 0 {
		t.Fatalf("len after invalidate = %d", c.len())
	}
}

// TestPlanCacheConcurrentWithDDL hammers the cache from concurrent
// readers while DDL churn invalidates it; run under -race this is the
// lock-order and data-race check for the compiled hot path.
func TestPlanCacheConcurrentWithDDL(t *testing.T) {
	db := testDB(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sql := fmt.Sprintf(`SELECT o_orderkey FROM orders WHERE o_custkey = %d`, i%5)
				if _, err := db.Query(sql); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("churn%d", i)
			if _, err := db.Exec(fmt.Sprintf(`CREATE TABLE %s (x INT)`, name)); err != nil {
				t.Errorf("churn create: %v", err)
				return
			}
			db.DropTable(name)
		}
	}()
	wg.Wait()
}

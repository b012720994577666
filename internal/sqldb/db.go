package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"bestpeer/internal/sqlval"
	"bestpeer/internal/telemetry"
)

// DB is one embedded database instance: the stand-in for the MySQL
// server a normal peer hosts (or the PostgreSQL server a HadoopDB worker
// hosts). It is safe for concurrent use; reads share an RWMutex.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	ver    uint64 // schema version; bumped by DDL under mu
	plans  *planCache

	// droppedMuts folds dropped tables' mutation counts (plus one per
	// drop) into the data version, so Versions stays monotonic across
	// DROP TABLE + re-CREATE even when the new table starts at zero
	// mutations. droppedPerTable keeps the same fold per table name for
	// the per-table version vector (TableDataVersions).
	droppedMuts     uint64
	droppedPerTable map[string]uint64

	// Write-ahead log (nil unless EnableWAL ran) and the atomic-batch
	// state: while inBatch is set (only under mu.Lock, by Atomic), table
	// mutations collect in batch instead of reaching the WAL, so an
	// aborted batch can be physically undone and never logged. walOn
	// mirrors wal != nil with the atomic happens-before edge bare Table
	// writers need.
	wal     *WAL
	walOn   atomic.Bool
	inBatch atomic.Bool
	batch   []WALRecord

	// Cost-model statistics: per-table histogram snapshots with their
	// own mutex (built lazily under db.mu.RLock), and a version counter
	// cached plans carry so a statistics rebuild re-plans them.
	statsMu  sync.Mutex
	stats    map[string]*tableStats
	statsVer atomic.Uint64
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{
		tables:          make(map[string]*Table),
		plans:           newPlanCache(defaultPlanCacheCap),
		stats:           make(map[string]*tableStats),
		droppedPerTable: make(map[string]uint64),
	}
}

// EnableWAL attaches a write-ahead log. It must run before any DDL or
// DML — the log is the database's complete history, so replaying it
// reconstructs the state bit-identically; a non-empty database has
// history the log would miss.
func (db *DB) EnableWAL(cfg WALConfig) (*WAL, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal != nil {
		return nil, fmt.Errorf("sqldb: WAL already enabled")
	}
	if len(db.tables) > 0 || db.ver != 0 || db.droppedMuts != 0 {
		return nil, fmt.Errorf("sqldb: WAL must be enabled on an empty database")
	}
	w, err := newWAL(cfg)
	if err != nil {
		return nil, err
	}
	db.wal = w
	db.walOn.Store(true)
	return w, nil
}

// WAL returns the attached write-ahead log, or nil.
func (db *DB) WAL() *WAL {
	if !db.walOn.Load() {
		return nil
	}
	return db.wal
}

// logRecord routes one mutation record: into the current atomic batch
// when one is open (committed or discarded wholesale later), else
// straight to the WAL. Without a WAL and outside a batch it is a no-op.
func (db *DB) logRecord(rec WALRecord) {
	if db.inBatch.Load() {
		db.batch = append(db.batch, rec)
		return
	}
	if db.walOn.Load() {
		db.wal.append(rec)
	}
}

// Atomic runs fn with the database write-locked and every table
// mutation it performs staged as one batch: on success the batch
// reaches the WAL as a unit (group commit applies downstream of the
// whole batch), on error every staged mutation is physically undone —
// rows, indexes, byte accounting, and mutation counters all revert, so
// the failed batch leaves no trace in either the tables or the log.
// fn must mutate only through Table handles of this database (DB-level
// methods would deadlock on mu; DDL belongs outside batches).
func (db *DB) Atomic(fn func() error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.inBatch.Store(true)
	db.batch = db.batch[:0]
	err := fn()
	db.inBatch.Store(false)
	if err != nil {
		db.rollbackLocked(db.batch)
		db.batch = nil
		walRollbacks.Inc()
		return err
	}
	if db.wal != nil {
		db.wal.appendBatch(db.batch)
	}
	db.batch = nil
	return nil
}

// rollbackLocked undoes a staged batch in reverse order. An undo
// failure is unrecoverable corruption and panics: it cannot happen
// unless fn bypassed the staged tables.
func (db *DB) rollbackLocked(batch []WALRecord) {
	for i := len(batch) - 1; i >= 0; i-- {
		rec := batch[i]
		t := db.table(rec.Table)
		if t == nil {
			panic(fmt.Sprintf("sqldb: rollback: table %s vanished mid-batch", rec.Table))
		}
		var err error
		switch rec.Kind {
		case RecInsert:
			err = t.undoInsert(rec.RowID)
		case RecDelete:
			err = t.undoDelete(rec.RowID, rec.Old)
		case RecUpdate:
			err = t.undoUpdate(rec.RowID, rec.Old)
		default:
			err = fmt.Errorf("non-DML record %s in batch", rec.Kind)
		}
		if err != nil {
			panic(fmt.Sprintf("sqldb: rollback failed: %v", err))
		}
	}
}

// bumpSchemaLocked records a schema change: any cached plan may now be
// stale, so the plan cache and the statistics snapshots are cleared.
// Callers hold db.mu.Lock.
func (db *DB) bumpSchemaLocked() {
	db.ver++
	db.plans.invalidate()
	db.invalidateStatsLocked()
}

// bumpSchemaScopedLocked records a schema change confined to one table
// (DROP TABLE, CREATE INDEX): only cached plans referencing that table
// are dropped; survivors cannot observe the change, so they are
// restamped to the new schema version instead of recompiled. Only the
// table's own statistics snapshot is discarded — statsVer stays put, so
// survivors' sver check keeps matching. Callers hold db.mu.Lock.
func (db *DB) bumpSchemaScopedLocked(table string) {
	db.ver++
	db.plans.invalidateScoped(table, db.ver)
	db.dropStatsLocked(table)
}

// Versions returns the database's monotonic (schema, data) version
// pair. The schema version counts DDL; the data version counts row
// mutations (insert/delete/update) across all tables, folding in
// dropped tables so it never regresses. Result caches key entries on
// this pair: any DDL or DML makes previously cached results
// unservable.
func (db *DB) Versions() (schema, data uint64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	data = db.droppedMuts
	for _, t := range db.tables {
		data += t.Mutations()
	}
	return db.ver, data
}

// VersionVector returns the schema version plus the per-table data
// version of each named table (its mutation count, folded with any
// same-named dropped tables so the version never regresses across
// DROP + re-CREATE). Unknown tables report their dropped fold (0 if
// never seen). The serving result cache stamps entries with this
// vector, so DML on unrelated tables leaves them servable.
func (db *DB) VersionVector(tables []string) (schema uint64, data []uint64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	data = make([]uint64, len(tables))
	for i, name := range tables {
		key := strings.ToLower(name)
		v := db.droppedPerTable[key]
		if t := db.tables[key]; t != nil {
			v += t.muts
		}
		data[i] = v
	}
	return db.ver, data
}

// table returns the named table, or nil. Callers must hold db.mu.
func (db *DB) table(name string) *Table {
	return db.tables[strings.ToLower(name)]
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.table(name)
}

// TableNames returns the names of all tables, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Schema().Table)
	}
	sort.Strings(out)
	return out
}

// CreateTable creates a table from a schema (programmatic alternative to
// CREATE TABLE, used by the data loader and the TPC-H generator).
func (db *DB) CreateTable(schema *Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(schema.Table)
	if _, ok := db.tables[key]; ok {
		return nil, fmt.Errorf("sqldb: table %s already exists", schema.Table)
	}
	t, err := NewTable(schema)
	if err != nil {
		return nil, err
	}
	t.db, t.key = db, key
	db.tables[key] = t
	db.bumpSchemaLocked()
	db.logRecord(WALRecord{Kind: RecCreateTable, Table: key, Schema: schema.Clone()})
	return t, nil
}

// DropTable removes a table; it reports whether the table existed.
func (db *DB) DropTable(name string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	t, ok := db.tables[key]
	delete(db.tables, key)
	if ok {
		db.droppedMuts += t.Mutations() + 1
		db.droppedPerTable[key] += t.Mutations() + 1
		db.bumpSchemaScopedLocked(key)
		db.logRecord(WALRecord{Kind: RecDropTable, Table: key, TableVer: t.Mutations()})
	}
	return ok
}

// InsertRow appends a row to the named table without going through SQL.
func (db *DB) InsertRow(table string, row sqlval.Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.table(table)
	if t == nil {
		return fmt.Errorf("sqldb: unknown table %s", table)
	}
	_, err := t.Insert(row)
	return err
}

// Exec parses and executes a single SQL statement. Repeated statements
// skip the parser: the plan cache keys on the raw SQL text.
func (db *DB) Exec(sql string) (*Result, error) {
	if stmt := db.cachedStmt(sql); stmt != nil {
		return db.execStmtKeyed(stmt, sql)
	}
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.execStmtKeyed(stmt, sql)
}

// Query executes a SELECT statement and returns its result.
func (db *DB) Query(sql string) (*Result, error) {
	if stmt := db.cachedStmt(sql); stmt != nil {
		if _, ok := stmt.(*SelectStmt); ok {
			return db.execStmtKeyed(stmt, sql)
		}
	}
	stmt, err := ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return db.execStmtKeyed(stmt, sql)
}

// cachedStmt returns the parse result cached under the SQL text, or nil.
func (db *DB) cachedStmt(sql string) Statement {
	if e := db.plans.lookup(sql); e != nil {
		return e.stmt
	}
	return nil
}

// Statement counters, resolved once per kind: ExecStmt runs on every
// subquery a data owner serves.
var (
	stmtCounters = map[string]*telemetry.Counter{}
	rowsScanned  = telemetry.Default.Counter("sqldb_rows_scanned_total")
)

func init() {
	for _, kind := range []string{"select", "create_table", "create_index", "insert", "delete", "update", "other"} {
		stmtCounters[kind] = telemetry.Default.Counter("sqldb_statements_total", telemetry.L("kind", kind))
	}
}

// ExecStmt executes an already-parsed statement. SELECTs are keyed into
// the plan cache by their SQL rendering, so the identical subquery
// templates engines ship every round compile once.
func (db *DB) ExecStmt(stmt Statement) (*Result, error) {
	return db.execStmtKeyed(stmt, "")
}

// execStmtKeyed executes stmt; key is the plan-cache key (raw SQL text
// when the statement came in as text, "" to derive it on demand).
func (db *DB) execStmtKeyed(stmt Statement, key string) (*Result, error) {
	res, err := db.execStmt(stmt, key)
	if err == nil && res != nil {
		stmtCounters[stmtKind(stmt)].Inc()
		if res.Stats.RowsScanned > 0 {
			rowsScanned.Add(res.Stats.RowsScanned)
		}
	}
	return res, err
}

// stmtKind names a statement for the per-kind statement counter.
func stmtKind(stmt Statement) string {
	switch stmt.(type) {
	case *SelectStmt:
		return "select"
	case *CreateTableStmt:
		return "create_table"
	case *CreateIndexStmt:
		return "create_index"
	case *InsertStmt:
		return "insert"
	case *DeleteStmt:
		return "delete"
	case *UpdateStmt:
		return "update"
	default:
		return "other"
	}
}

func (db *DB) execStmt(stmt Statement, key string) (*Result, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		db.mu.RLock()
		defer db.mu.RUnlock()
		if key == "" {
			key = s.String()
		}
		return db.executeSelectCached(key, s)
	case *CreateTableStmt:
		if _, err := db.CreateTable(s.Schema); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *CreateIndexStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		t := db.table(s.Table)
		if t == nil {
			return nil, fmt.Errorf("sqldb: unknown table %s", s.Table)
		}
		if err := t.createIndexRaw(s.Name, s.Column, s.Unique); err != nil {
			return nil, err
		}
		// A new index changes access-path choices only for plans that
		// read this table; everyone else's plan survives. The WAL record
		// carries Bump so replay reproduces the version bump too.
		db.bumpSchemaScopedLocked(s.Table)
		db.logRecord(WALRecord{Kind: RecCreateIndex, Table: strings.ToLower(s.Table), IxName: s.Name, IxColumn: s.Column, IxUnique: s.Unique, Bump: true})
		return &Result{}, nil
	case *InsertStmt:
		return db.executeInsert(s)
	case *DeleteStmt:
		return db.executeDelete(s)
	case *UpdateStmt:
		return db.executeUpdate(s)
	default:
		return nil, fmt.Errorf("sqldb: unsupported statement %T", stmt)
	}
}

// compileWhere compiles a DELETE/UPDATE predicate once per statement;
// nil means no WHERE clause. Names resolve here, before the scan, so a
// predicate that does not compile (unknown column, unknown function)
// fails the statement whether or not the table holds rows.
func compileWhere(f *frame, where Expr) (compiledPred, error) {
	if where == nil {
		return nil, nil
	}
	return compilePred(f, where)
}

// executeSelectCached runs s through its compiled plan, reusing the
// cached plan when the schema and statistics versions still match.
// Callers hold db.mu.RLock. A statement that does not compile returns
// its compile error.
func (db *DB) executeSelectCached(key string, s *SelectStmt) (*Result, error) {
	// Freshen statistics for the referenced tables first (a cheap
	// staleness probe when nothing changed): if enough rows mutated
	// since a cached plan was costed, the rebuild bumps statsVer and
	// the version check below forces a re-plan.
	for _, ref := range s.From {
		if t := db.table(ref.Table); t != nil {
			db.ensureStats(t)
		}
	}
	if e := db.plans.lookup(key); e != nil && e.plan != nil && e.ver == db.ver && e.sver == db.statsVer.Load() {
		planCacheHits.Inc()
		return e.plan.run()
	}
	planCacheMisses.Inc()
	plan, err := db.compileSelect(s)
	if err != nil {
		return nil, err
	}
	db.plans.store(&planEntry{key: key, stmt: s, plan: plan, ver: db.ver, sver: db.statsVer.Load(), tables: tablesOf(s)})
	return plan.run()
}

func (db *DB) executeInsert(s *InsertStmt) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("sqldb: unknown table %s", s.Table)
	}
	empty := &frame{}
	n := 0
	for _, exprRow := range s.Rows {
		row := make(sqlval.Row, len(exprRow))
		for i, e := range exprRow {
			v, err := evalExpr(empty, e, nil)
			if err != nil {
				return nil, fmt.Errorf("sqldb: INSERT values must be constants: %w", err)
			}
			row[i] = v
		}
		if _, err := t.Insert(row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Stats: Stats{RowsReturned: int64(n)}}, nil
}

func (db *DB) executeDelete(s *DeleteStmt) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("sqldb: unknown table %s", s.Table)
	}
	f := &frame{}
	f.push(s.Table, t.Schema())
	match, err := compileWhere(f, s.Where)
	if err != nil {
		return nil, err
	}
	var ids []int
	var ferr error
	t.Scan(func(id int, row sqlval.Row) bool {
		if match != nil {
			ok, err := match(row)
			if err != nil {
				ferr = err
				return false
			}
			if !ok {
				return true
			}
		}
		ids = append(ids, id)
		return true
	})
	if ferr != nil {
		return nil, ferr
	}
	for _, id := range ids {
		t.Delete(id)
	}
	return &Result{Stats: Stats{RowsReturned: int64(len(ids))}}, nil
}

func (db *DB) executeUpdate(s *UpdateStmt) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("sqldb: unknown table %s", s.Table)
	}
	f := &frame{}
	f.push(s.Table, t.Schema())
	cols := make([]int, len(s.Set))
	sets := make([]compiledExpr, len(s.Set))
	for i, a := range s.Set {
		ci := t.Schema().ColumnIndex(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("sqldb: unknown column %s in UPDATE", a.Column)
		}
		cols[i] = ci
		set, err := compileExpr(f, a.Value)
		if err != nil {
			return nil, err
		}
		sets[i] = set
	}
	type change struct {
		id  int
		row sqlval.Row
	}
	match, err := compileWhere(f, s.Where)
	if err != nil {
		return nil, err
	}
	var changes []change
	var ferr error
	t.Scan(func(id int, row sqlval.Row) bool {
		if match != nil {
			ok, err := match(row)
			if err != nil {
				ferr = err
				return false
			}
			if !ok {
				return true
			}
		}
		nr := row.Clone()
		for i, set := range sets {
			v, err := set(row)
			if err != nil {
				ferr = err
				return false
			}
			nr[cols[i]] = v
		}
		changes = append(changes, change{id: id, row: nr})
		return true
	})
	if ferr != nil {
		return nil, ferr
	}
	for _, c := range changes {
		if err := t.Update(c.id, c.row); err != nil {
			return nil, err
		}
	}
	return &Result{Stats: Stats{RowsReturned: int64(len(changes))}}, nil
}

package sqldb

import (
	"fmt"
	"sort"
	"strings"

	"bestpeer/internal/sqlval"
	"bestpeer/internal/telemetry"
)

// A selectPlan is a SELECT compiled once against the current schema:
// access paths chosen, every column reference resolved to a row offset,
// and scan filters, join keys, projections and ORDER BY keys turned into
// batch programs (batchcompile.go). It is the only way a SELECT runs.
// Plans are stateless at run time (per-run Stats, sinks and pooled batch
// contexts), so a cached plan can serve concurrent readers under
// db.mu.RLock.
//
// Single-table statements — the shape of every subquery the engines
// ship to data owners — stream scan batches straight into the
// projection sink; joins materialize per-table filtered row sets
// preallocated from the costed cardinality estimates.
type selectPlan struct {
	scans []*scanPlan // in cost-chosen join order
	joins []*joinPlan // joins[i] adds scans[i+1] onto the accumulated rows
	proj  *projPlan
}

var planCompiles = telemetry.Default.Counter("sqldb_plans_compiled_total")

// scanPlan fetches one table's rows: the costed access-path choice plus
// the table's fused filter program. The choice's estimate is compared
// with the actual row count on every run to feed the cost-model
// misprediction histogram.
type scanPlan struct {
	table      *Table
	alias      string
	choice     scanChoice
	filter     bpred // nil = no per-table conjuncts
	filterOffs []int // columns the filter needs loaded
	ctxs       bctxPool
}

// joinPlan joins the accumulated left rows with one table's rows: a hash
// join on the paired key programs, or a cross product when the level has
// no equi-keys. The residual predicate (cross conditions resolvable at
// this level) runs over the joined rows either way.
type joinPlan struct {
	width        int
	lkeys, rkeys []bval // over the accumulated layout / the right scan's layout
	loffs, roffs []int
	lctxs        bctxPool
	residual     compiledPred
}

// compileSelect builds the plan for stmt. Callers hold db.mu (read or
// write). Every name resolves here: an unknown table, unknown or
// ambiguous column, unknown function or unplaceable predicate is this
// function's error, whether or not the tables hold rows.
func (db *DB) compileSelect(stmt *SelectStmt) (*selectPlan, error) {
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
	perTable, cross := splitConjuncts(stmt.Where, stmt.From, schemas)
	order := db.joinOrder(tables, stmt.From, schemas, perTable, cross)

	// Stars expand in FROM order regardless of the cost-chosen execution
	// order, so results are identical whichever order the cost model picks.
	starF := &frame{}
	for i, ref := range stmt.From {
		starF.push(ref.Alias, schemas[i])
	}

	p := &selectPlan{}
	for _, ti := range order {
		ref := stmt.From[ti]
		f := &frame{}
		f.push(ref.Alias, schemas[ti])
		c := newBcomp(f)
		filter, err := c.compileFilter(perTable[ti])
		if err != nil {
			return nil, err
		}
		p.scans = append(p.scans, &scanPlan{
			table:      tables[ti],
			alias:      ref.Alias,
			choice:     db.planScan(tables[ti], ref.Alias, perTable[ti]),
			filter:     filter,
			filterOffs: c.offsets(),
			ctxs:       bctxPool{f: f, kinds: c.kinds},
		})
	}

	cur := &frame{}
	cur.push(stmt.From[order[0]].Alias, schemas[order[0]])
	pending := cross
	for k := 1; k < len(order); k++ {
		ti := order[k]
		rf := &frame{}
		rf.push(stmt.From[ti].Alias, schemas[ti])
		lkeys, rkeys, rest := equiJoinKeys(pending, cur, rf)

		next := &frame{}
		next.bindings = append(next.bindings, cur.bindings...)
		next.width = cur.width
		next.push(stmt.From[ti].Alias, schemas[ti])

		var applicable, still []Expr
		for _, c := range rest {
			if next.resolvable(c) {
				applicable = append(applicable, c)
			} else {
				still = append(still, c)
			}
		}
		lc, rc := newBcomp(cur), newBcomp(rf)
		jp := &joinPlan{width: next.width, lctxs: bctxPool{f: cur, kinds: lc.kinds}}
		var err error
		if jp.lkeys, err = lc.compileValues(lkeys); err != nil {
			return nil, err
		}
		if jp.rkeys, err = rc.compileValues(rkeys); err != nil {
			return nil, err
		}
		jp.loffs, jp.roffs = lc.offsets(), rc.offsets()
		if jp.residual, err = compileFilter(next, applicable); err != nil {
			return nil, err
		}
		p.joins = append(p.joins, jp)
		cur = next
		pending = still
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("sqldb: unresolvable predicate %s", AndAll(pending))
	}

	proj, err := newProjPlan(cur, starF, stmt)
	if err != nil {
		return nil, err
	}
	p.proj = proj
	planCompiles.Inc()
	return p, nil
}

// run executes the plan. Callers hold db.mu.RLock.
func (p *selectPlan) run() (*Result, error) {
	sink := p.proj.newSink(0)
	var stats Stats
	var err error
	if len(p.scans) == 1 {
		err = p.runSingle(sink, &stats)
	} else {
		err = p.runMulti(sink, &stats)
	}
	if err != nil {
		return nil, err
	}
	res, err := sink.finish()
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

// ids evaluates the index probe, returning candidate row IDs.
func (s *scanPlan) ids() []int {
	path := s.choice.path
	if path.useEq {
		return path.index.Lookup(path.eq)
	}
	return path.index.Range(path.lo, path.hi, path.loInc, path.hiInc)
}

// projPlan is the compiled projection/aggregation tail of a SELECT:
// output and ORDER BY programs for plain selects, group-key and
// aggregate-argument programs for grouped ones. Per-group HAVING and
// outputs evaluate through evalWithAggs — that code runs once per group,
// not once per row, and keeps the MySQL-permissive sample-row semantics.
type projPlan struct {
	stmt    *SelectStmt
	f       *frame
	cols    []string
	outAST  []Expr // expanded select-list expressions
	grouped bool
	coll    *aggCollector // grouped only

	offs  []int          // columns the programs below need loaded
	outs  []bOut         // plain: output expressions
	order []bOrderSource // plain: ORDER BY keys
	keys  []bOut         // grouped: GROUP BY keys
	args  []*bval        // grouped: aggregate argument per collected call; nil = COUNT(*)
	ctxs  bctxPool
}

// bOut is one projection source: a bare column read straight off the
// joined row (col >= 0), or a compiled vector program. Bare columns —
// the dominant SELECT-list shape — skip the row-to-column transposition
// a vector evaluation would need just to box the values back out.
type bOut struct {
	ev  *bval
	col int
}

// bOrderSource produces one ORDER BY key for an output row: a bare
// column, a compiled key expression, or (when the expression only
// resolves as a select alias) the index of the output column to reuse.
type bOrderSource struct {
	bOut
	alias int
}

// compileOut compiles one projection source over c's frame.
func (c *bcomp) compileOut(e Expr) (bOut, error) {
	if cr, ok := e.(*ColumnRef); ok {
		if off, err := c.f.resolve(cr); err == nil {
			return bOut{col: off}, nil
		}
	}
	bv, err := c.compileValue(e)
	if err != nil {
		return bOut{}, err
	}
	return bOut{ev: &bv, col: -1}, nil
}

// newProjPlan compiles the projection tail over the execution frame f;
// starF (the FROM-order frame) expands stars so output column order does
// not depend on the cost-chosen join order. Both frames resolve the same
// names — outAST references are matched by name, not position.
func newProjPlan(f, starF *frame, stmt *SelectStmt) (*projPlan, error) {
	grouped := len(stmt.GroupBy) > 0 || stmt.Having != nil
	for _, item := range stmt.Items {
		if !item.Star && HasAggregate(item.Expr) {
			grouped = true
		}
	}
	cols, outAST, err := expandItems(starF, stmt.Items)
	if err != nil {
		return nil, err
	}
	c := newBcomp(f)
	pp := &projPlan{stmt: stmt, f: f, cols: cols, outAST: outAST, grouped: grouped,
		ctxs: bctxPool{f: f, kinds: c.kinds}}
	if grouped {
		pp.coll = collectAggregates(stmt)
		for _, e := range stmt.GroupBy {
			key, err := c.compileOut(e)
			if err != nil {
				return nil, err
			}
			pp.keys = append(pp.keys, key)
		}
		for _, name := range pp.coll.order {
			call := pp.coll.calls[name]
			if call.Star {
				pp.args = append(pp.args, nil)
				continue
			}
			arg, err := c.compileValue(call.Args[0])
			if err != nil {
				return nil, err
			}
			pp.args = append(pp.args, &arg)
		}
		pp.offs = c.offsets()
		return pp, nil
	}
	for _, e := range outAST {
		out, err := c.compileOut(e)
		if err != nil {
			return nil, err
		}
		pp.outs = append(pp.outs, out)
	}
	for _, o := range stmt.OrderBy {
		src, err := c.compileOut(o.Expr)
		if err != nil {
			// Allow ORDER BY on a select alias, resolved once here.
			idx, ok := aliasIndex(o.Expr, cols)
			if !ok {
				return nil, err
			}
			pp.order = append(pp.order, bOrderSource{bOut: bOut{col: -1}, alias: idx})
			continue
		}
		pp.order = append(pp.order, bOrderSource{bOut: src, alias: -1})
	}
	pp.offs = c.offsets()
	return pp, nil
}

// aliasIndex finds the select-list column an unqualified ORDER BY ref
// names (orderByAlias, resolved at compile time).
func aliasIndex(e Expr, cols []string) (int, bool) {
	ref, ok := e.(*ColumnRef)
	if !ok || ref.Table != "" {
		return 0, false
	}
	for i, c := range cols {
		if strings.EqualFold(c, ref.Column) {
			return i, true
		}
	}
	return 0, false
}

// projSink accumulates rows for one execution of a projPlan.
type projSink struct {
	pp   *projPlan
	outs []sortRow

	groups  map[uint64][]*group
	ordered []*group

	// Per-batch scratch, allocated on first addBatch.
	kvecs []*vec
	gbuf  []*group
	ovecs []*vec
	okeys []*vec
}

type sortRow struct {
	out  sqlval.Row
	keys sqlval.Row
}

func (pp *projPlan) newSink(sizeHint int) *projSink {
	s := &projSink{pp: pp}
	if pp.grouped {
		s.groups = make(map[uint64][]*group)
	} else if sizeHint > 0 {
		s.outs = make([]sortRow, 0, sizeHint)
	}
	return s
}

func (pp *projPlan) newGroup(key, sample sqlval.Row) *group {
	g := &group{key: key, sample: sample}
	for _, name := range pp.coll.order {
		g.aggs = append(g.aggs, newAggState(pp.coll.calls[name].Name))
	}
	return g
}

// addRows feeds already-materialized rows into sink in batch-sized
// windows.
func (pp *projPlan) addRows(sink *projSink, rows []sqlval.Row) error {
	ctx := pp.ctxs.get()
	defer pp.ctxs.put(ctx)
	for start := 0; start < len(rows); start += batchSize {
		ctx.begin(rows[start:min(start+batchSize, len(rows))])
		if err := sink.addBatch(ctx); err != nil {
			return err
		}
	}
	return nil
}

// runRows projects already-joined, already-filtered rows (ProjectRows).
func (pp *projPlan) runRows(rows []sqlval.Row) (*Result, error) {
	sink := pp.newSink(len(rows))
	if err := pp.addRows(sink, rows); err != nil {
		return nil, err
	}
	return sink.finish()
}

// finish sorts, deduplicates, limits, and emits the result.
func (s *projSink) finish() (*Result, error) {
	pp := s.pp
	outs := s.outs
	if pp.grouped {
		ordered := s.ordered
		// A global aggregate (no GROUP BY) over zero rows still yields one row.
		if len(pp.stmt.GroupBy) == 0 && len(ordered) == 0 {
			ordered = append(ordered, pp.newGroup(nil, nil))
		}
		for _, g := range ordered {
			if pp.stmt.Having != nil {
				v, err := evalWithAggs(pp.f, pp.stmt.Having, g, pp.coll)
				if err != nil {
					return nil, err
				}
				if v.IsNull() || !truthy(v) {
					continue
				}
			}
			out := make(sqlval.Row, len(pp.outAST))
			for i, e := range pp.outAST {
				v, err := evalWithAggs(pp.f, e, g, pp.coll)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			var keys sqlval.Row
			for _, o := range pp.stmt.OrderBy {
				v, err := evalWithAggs(pp.f, o.Expr, g, pp.coll)
				if err != nil {
					v2, err2 := orderByAlias(o.Expr, pp.cols, out)
					if err2 != nil {
						return nil, err
					}
					v = v2
				}
				keys = append(keys, v)
			}
			outs = append(outs, sortRow{out: out, keys: keys})
		}
	}
	if len(pp.stmt.OrderBy) > 0 {
		sort.SliceStable(outs, func(i, j int) bool {
			return lessKeys(outs[i].keys, outs[j].keys, pp.stmt.OrderBy)
		})
	}
	res := &Result{Columns: pp.cols}
	seen := newDistinctFilter(pp.stmt.Distinct)
	for _, sr := range outs {
		if !seen.admit(sr.out) {
			continue
		}
		if pp.stmt.Limit >= 0 && len(res.Rows) >= pp.stmt.Limit {
			break
		}
		res.Rows = append(res.Rows, sr.out)
	}
	return res, nil
}

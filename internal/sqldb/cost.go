package sqldb

import (
	"math"
	"sort"
	"strings"

	"bestpeer/internal/histogram"
	"bestpeer/internal/sqlval"
	"bestpeer/internal/telemetry"
)

// This file is the local cost model: per-table statistics built from
// the same MHIST histograms the overlay publishes (paper §5.1), and the
// planning decisions they drive — predicate selectivity, index-vs-full
// scan choice, and multi-table join ordering.
//
// The executor and the tests' reference interpreter consult this layer
// through the same entry points, so they always agree on access paths
// and join order. That is what lets the differential tests demand
// identical Stats: the cost model changes which plan runs, never what a
// given plan computes.

var (
	statsBuilds = telemetry.Default.Counter("sqldb_stats_builds_total")
	// costEstimateRatio records estimated/actual scan output rows; a
	// well-calibrated model keeps mass near the 0.8–1.25 buckets.
	costEstimateRatio = telemetry.Default.Histogram("sqldb_cost_estimate_ratio",
		[]float64{0.1, 0.25, 0.5, 0.8, 1.25, 2, 4, 10})
)

const (
	// statsMaxBuckets bounds each per-column histogram.
	statsMaxBuckets = 32
	// statsNDVCap bounds the distinct-value tracking per column.
	statsNDVCap = 4096
	// defaultCondSel is the classic guess for a conjunct the model
	// cannot see through (System R's 1/3).
	defaultCondSel = 1.0 / 3
	// minCondSel keeps multiplied selectivities away from zero so join
	// ordering never divides by nothing.
	minCondSel = 1e-4
	// indexRangeThreshold: a range probe expected to touch more than
	// this fraction of the table reads cheaper as a sequential scan.
	indexRangeThreshold = 0.85
)

// colStats summarizes one column: a 1-D histogram for number-line kinds
// (INT, FLOAT, DATE) plus a distinct-value count for equality estimates.
type colStats struct {
	hist *histogram.Histogram // nil for string columns
	ndv  int
}

// tableStats is the statistics snapshot of one table, tagged with the
// mutation count it was built at so staleness is detectable.
type tableStats struct {
	muts uint64
	rows int
	cols map[string]*colStats // by lowercased column name
}

// stale reports whether the table has mutated enough since the snapshot
// to warrant a rebuild (more than ~20% churn, with slack for tiny
// tables so single-row test inserts do not thrash the builder).
func (s *tableStats) stale(t *Table) bool {
	d := t.Mutations() - s.muts
	return d > uint64(s.rows/5+16)
}

// ensureStats returns fresh statistics for t, building (or rebuilding)
// them when absent or stale. This is the auto-build hook: the first
// query after a bulk load pays one scan, and cost-based planning has
// histograms with no manual Build call. Safe under db.mu.RLock — the
// stats map has its own mutex and table reads are lock-free for
// readers. Every (re)build bumps statsVer, which cached plans carry, so
// a plan compiled against old statistics is re-planned on next lookup.
func (db *DB) ensureStats(t *Table) *tableStats {
	key := strings.ToLower(t.Schema().Table)
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	s := db.stats[key]
	if s != nil && !s.stale(t) {
		return s
	}
	s = buildTableStats(t)
	db.stats[key] = s
	db.statsVer.Add(1)
	statsBuilds.Inc()
	return s
}

// invalidateStatsLocked drops every statistics snapshot. Called under
// db.mu.Lock by DDL, alongside the plan-cache invalidation.
func (db *DB) invalidateStatsLocked() {
	db.statsMu.Lock()
	db.stats = make(map[string]*tableStats)
	db.statsMu.Unlock()
	db.statsVer.Add(1)
}

// dropStatsLocked discards one table's statistics snapshot without
// bumping statsVer: scoped invalidation already removed every cached
// plan that read the table, and a global statsVer bump would needlessly
// re-plan the survivors. Called under db.mu.Lock.
func (db *DB) dropStatsLocked(table string) {
	db.statsMu.Lock()
	delete(db.stats, strings.ToLower(table))
	db.statsMu.Unlock()
}

// buildTableStats scans the table once, building a 1-D MHIST histogram
// per number-line column and a distinct count per column.
func buildTableStats(t *Table) *tableStats {
	schema := t.Schema()
	s := &tableStats{muts: t.Mutations(), rows: t.NumRows(), cols: make(map[string]*colStats, len(schema.Columns))}
	numeric := make([]int, 0, len(schema.Columns))
	points := make(map[int][]float64)
	distinct := make([]map[sqlval.Value]struct{}, len(schema.Columns))
	for ci, col := range schema.Columns {
		distinct[ci] = make(map[sqlval.Value]struct{})
		switch col.Kind {
		case sqlval.KindInt, sqlval.KindFloat, sqlval.KindDate:
			numeric = append(numeric, ci)
			points[ci] = make([]float64, 0, t.NumRows())
		}
	}
	t.Scan(func(_ int, row sqlval.Row) bool {
		for ci := range schema.Columns {
			v := row[ci]
			if len(distinct[ci]) < statsNDVCap {
				distinct[ci][v] = struct{}{}
			}
		}
		for _, ci := range numeric {
			if v := row[ci]; !v.IsNull() {
				points[ci] = append(points[ci], v.AsFloat())
			}
		}
		return true
	})
	for ci, col := range schema.Columns {
		cs := &colStats{ndv: len(distinct[ci])}
		if pts, ok := points[ci]; ok && len(pts) > 0 {
			dim := make([][]float64, len(pts))
			for i, p := range pts {
				dim[i] = []float64{p}
			}
			if h, err := histogram.Build(schema.Table, []string{col.Name}, dim, statsMaxBuckets); err == nil {
				cs.hist = h
			}
		}
		s.cols[strings.ToLower(col.Name)] = cs
	}
	return s
}

// colInterval is the merged literal bound of one column's conjuncts.
type colInterval struct {
	lo, hi float64 // ±Inf when unbounded
	eq     bool
	eqVal  sqlval.Value
}

// extractBounds walks single-table conjuncts and merges column-vs-
// literal comparisons into per-column intervals, counting conjuncts the
// extractor cannot model (returned as opaque). This is the planner-side
// twin of chooseAccessPath's probe discovery, producing estimates
// rather than probes.
func extractBounds(t *Table, conjuncts []Expr) (bounds map[string]*colInterval, opaque int) {
	bounds = make(map[string]*colInterval)
	get := func(col string) *colInterval {
		key := strings.ToLower(col)
		iv := bounds[key]
		if iv == nil {
			iv = &colInterval{lo: math.Inf(-1), hi: math.Inf(1)}
			bounds[key] = iv
		}
		return iv
	}
	for _, c := range conjuncts {
		switch x := c.(type) {
		case *Binary:
			var col, op string
			var val sqlval.Value
			if ref, ok := x.L.(*ColumnRef); ok {
				if lit, okL := literalOf(x.R); okL {
					col, op, val = ref.Column, x.Op, lit
				}
			}
			if col == "" {
				if ref, ok := x.R.(*ColumnRef); ok {
					if lit, okL := literalOf(x.L); okL {
						col, op, val = ref.Column, flipOp(x.Op), lit
					}
				}
			}
			if col == "" || t.Schema().ColumnIndex(col) < 0 {
				opaque++
				continue
			}
			val = coerceForColumn(t, col, val)
			iv := get(col)
			switch op {
			case "=":
				iv.eq, iv.eqVal = true, val
				f := val.AsFloat()
				iv.lo, iv.hi = math.Max(iv.lo, f), math.Min(iv.hi, f)
			case ">", ">=":
				iv.lo = math.Max(iv.lo, val.AsFloat())
			case "<", "<=":
				iv.hi = math.Min(iv.hi, val.AsFloat())
			default:
				opaque++
			}
		case *Between:
			ref, ok := x.E.(*ColumnRef)
			if !ok || x.Not || t.Schema().ColumnIndex(ref.Column) < 0 {
				opaque++
				continue
			}
			lo, okLo := literalOf(x.Lo)
			hi, okHi := literalOf(x.Hi)
			if !okLo || !okHi {
				opaque++
				continue
			}
			iv := get(ref.Column)
			iv.lo = math.Max(iv.lo, coerceForColumn(t, ref.Column, lo).AsFloat())
			iv.hi = math.Min(iv.hi, coerceForColumn(t, ref.Column, hi).AsFloat())
		default:
			opaque++
		}
	}
	return bounds, opaque
}

// selectivity estimates the fraction of t's rows satisfying the
// conjuncts, combining per-column histogram estimates under the usual
// independence assumption.
func (s *tableStats) selectivity(t *Table, conjuncts []Expr) float64 {
	if len(conjuncts) == 0 {
		return 1
	}
	bounds, opaque := extractBounds(t, conjuncts)
	// Multiply in sorted column order: float multiplication is not
	// exactly commutative, and two DB instances holding identical data
	// must reach bit-identical estimates for the differential oracle.
	cols := make([]string, 0, len(bounds))
	for col := range bounds {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	sel := 1.0
	for _, col := range cols {
		iv := bounds[col]
		cs := s.cols[col]
		switch {
		case cs == nil:
			sel *= defaultCondSel
		case iv.eq:
			if cs.ndv > 0 {
				sel *= 1 / float64(cs.ndv)
			} else {
				sel *= defaultCondSel
			}
		case cs.hist != nil:
			sel *= cs.hist.Selectivity([]histogram.Interval1{{Lo: iv.lo, Hi: iv.hi}})
		default:
			sel *= defaultCondSel
		}
	}
	for i := 0; i < opaque; i++ {
		sel *= defaultCondSel
	}
	return math.Min(1, math.Max(minCondSel, sel))
}

// rangeSelectivity estimates the fraction of the table an index range
// probe would visit; ok is false when no histogram covers the column.
func (s *tableStats) rangeSelectivity(path accessPath) (float64, bool) {
	cs := s.cols[strings.ToLower(path.index.Column)]
	if cs == nil || cs.hist == nil {
		return 1, false
	}
	lo, hi := math.Inf(-1), math.Inf(1)
	if !path.lo.IsNull() {
		lo = path.lo.AsFloat()
	}
	if !path.hi.IsNull() {
		hi = path.hi.AsFloat()
	}
	return cs.hist.Selectivity([]histogram.Interval1{{Lo: lo, Hi: hi}}), true
}

// scanChoice is the cost model's verdict for one table access: the
// (possibly demoted) access path plus the cardinality estimates the
// EXPLAIN surface and misprediction telemetry report.
type scanChoice struct {
	path     accessPath
	estSel   float64 // estimated fraction of rows surviving the filter
	estRows  float64 // estimated filter output cardinality
	baseRows int
	// demoted records that an index range probe was rejected as too
	// unselective (EXPLAIN prints it; tests assert on it).
	demoted bool
}

// planScan chooses how to read one table: discover the best index probe
// the conjuncts allow, then keep it only when statistics say it pays.
// Equality probes always win; range probes are demoted to a full scan
// above indexRangeThreshold; missing statistics preserve the historical
// always-index behavior. The executor and the tests' reference
// interpreter both route through here, so their Stats (IndexUsed,
// RowsScanned) stay identical.
func (db *DB) planScan(t *Table, alias string, conjuncts []Expr) scanChoice {
	stats := db.ensureStats(t)
	c := scanChoice{
		path:     chooseAccessPath(t, alias, conjuncts),
		estSel:   stats.selectivity(t, conjuncts),
		baseRows: t.NumRows(),
	}
	c.estRows = float64(c.baseRows) * c.estSel
	if c.path.index != nil && !c.path.useEq {
		if rsel, ok := stats.rangeSelectivity(c.path); ok && rsel > indexRangeThreshold {
			c.path = accessPath{}
			c.demoted = true
		}
	}
	return c
}

// observeEstimate feeds the estimate/actual ratio histogram after a
// scan ran. Zero-actual scans clamp to the top bucket: the model
// predicted rows that never appeared.
func (c *scanChoice) observeEstimate(actual int64) {
	if actual <= 0 {
		if c.estRows > 0.5 {
			costEstimateRatio.Observe(10)
		}
		return
	}
	costEstimateRatio.Observe(c.estRows / float64(actual))
}

// joinOrder computes the execution order of the FROM entries: start at
// the smallest estimated filtered table, then greedily append the
// candidate minimizing the estimated intermediate size, preferring
// tables connected by an equi-join conjunct (an unconnected pick is a
// cross product and estimates accordingly). Ties keep FROM order, so
// statements the model cannot separate behave exactly as before. The
// returned slice is a permutation of [0..n); every execution path
// applies the same permutation.
func (db *DB) joinOrder(tables []*Table, refs []TableRef, schemas []*Schema, perTable [][]Expr, cross []Expr) []int {
	n := len(tables)
	order := make([]int, 0, n)
	if n == 1 {
		return append(order, 0)
	}
	ests := make([]float64, n)
	for i, t := range tables {
		ests[i] = math.Max(1, float64(t.NumRows())*db.ensureStats(t).selectivity(t, perTable[i]))
	}
	// connected[i][j]: some cross conjunct is an equality resolvable
	// over {i,j} jointly but over neither alone.
	connected := make([][]bool, n)
	for i := range connected {
		connected[i] = make([]bool, n)
	}
	for _, c := range cross {
		b, ok := c.(*Binary)
		if !ok || b.Op != "=" {
			continue
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				fi := &frame{}
				fi.push(refs[i].Alias, schemas[i])
				fj := &frame{}
				fj.push(refs[j].Alias, schemas[j])
				fij := &frame{}
				fij.push(refs[i].Alias, schemas[i])
				fij.push(refs[j].Alias, schemas[j])
				if fij.resolvable(c) && !fi.resolvable(c) && !fj.resolvable(c) {
					connected[i][j], connected[j][i] = true, true
				}
			}
		}
	}

	used := make([]bool, n)
	start := 0
	for i := 1; i < n; i++ {
		if ests[i] < ests[start] {
			start = i
		}
	}
	order = append(order, start)
	used[start] = true
	curEst := ests[start]
	for len(order) < n {
		best, bestEst, bestConn := -1, math.Inf(1), false
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			conn := false
			for _, i := range order {
				if connected[i][j] {
					conn = true
					break
				}
			}
			// Equi-joins assume key-foreign-key shape (output near the
			// larger side); cross products multiply.
			var est float64
			if conn {
				est = math.Max(curEst, ests[j])
			} else {
				est = curEst * ests[j]
			}
			// Prefer connected candidates outright: a cross product now
			// can never beat joining a linked table first.
			if (conn && !bestConn) || (conn == bestConn && est < bestEst) {
				best, bestEst, bestConn = j, est, conn
			}
		}
		order = append(order, best)
		used[best] = true
		curEst = bestEst
	}
	return order
}

package peer

import (
	"strings"

	"bestpeer/internal/baton"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/sqlval"
)

// Heat attribution: map a statement's literal predicates on the
// network's stats-domain columns (§5.1) into the BATON key space [0,1),
// the same normalization every publisher uses for range indexes. The
// resulting interval feeds two consumers: the data owner records it
// into its peer_key_heat heatmap (so the collector sees which key
// ranges the cluster actually hits), and the slow-query log stamps it
// on captured entries (so a p99 overrun names the range it sat on).

// heatKeyFloat widens an interval bound to the float the stats domain
// is declared over. Dates widen to their day ordinal — the same value
// sqlval.MustParseDate(...).AsFloat() yields when the domain is
// defined, so both sides of the mapping agree.
func heatKeyFloat(v sqlval.Value) (float64, bool) {
	switch v.Kind() {
	case sqlval.KindInt, sqlval.KindFloat, sqlval.KindDate:
		return v.AsFloat(), true
	default:
		return 0, false
	}
}

// heatBounds accumulates literal comparison bounds on one column while
// walking a WHERE clause's conjunctive spine. It exists so the heat
// path — which runs once per served subquery — stays allocation-free:
// the generic indexer.ExtractIntervals builds a conjunct slice plus an
// interval map per call, which at ~6 allocs a subquery showed up as
// ~2% on the fig-6 workload.
type heatBounds struct {
	lo, hi       float64
	hasLo, hasHi bool
}

func (b *heatBounds) tightenLo(v float64) {
	if !b.hasLo || v > b.lo {
		b.lo, b.hasLo = v, true
	}
}

func (b *heatBounds) tightenHi(v float64) {
	if !b.hasHi || v < b.hi {
		b.hi, b.hasHi = v, true
	}
}

// heatLiteral mirrors the indexer's literal normalization: date-shaped
// strings compare as dates, matching the published stats-domain floats.
func heatLiteral(v sqlval.Value) sqlval.Value {
	if v.Kind() == sqlval.KindString {
		if d, err := sqlval.ParseDate(v.AsString()); err == nil {
			return d
		}
	}
	return v
}

func heatFlip(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

// walk descends AND nodes and tightens the bounds from every literal
// comparison against col. Disjunctions and non-literal comparisons are
// skipped — heat attribution only needs the common conjunctive case.
func (b *heatBounds) walk(e sqldb.Expr, col string) {
	switch x := e.(type) {
	case *sqldb.Binary:
		if strings.EqualFold(x.Op, "AND") {
			b.walk(x.L, col)
			b.walk(x.R, col)
			return
		}
		ref, okL := x.L.(*sqldb.ColumnRef)
		lit, okR := x.R.(*sqldb.Literal)
		op := x.Op
		if !okL || !okR {
			if ref2, ok := x.R.(*sqldb.ColumnRef); ok {
				if lit2, ok2 := x.L.(*sqldb.Literal); ok2 {
					ref, lit, okL, okR = ref2, lit2, true, true
					op = heatFlip(op)
				}
			}
		}
		if !okL || !okR || !strings.EqualFold(ref.Column, col) {
			return
		}
		v, isNum := heatKeyFloat(heatLiteral(lit.Val))
		if !isNum {
			return
		}
		switch op {
		case "=":
			b.tightenLo(v)
			b.tightenHi(v)
		case "<", "<=":
			b.tightenHi(v)
		case ">", ">=":
			b.tightenLo(v)
		}
	case *sqldb.Between:
		ref, ok := x.E.(*sqldb.ColumnRef)
		if !ok || x.Not || !strings.EqualFold(ref.Column, col) {
			return
		}
		if lit, ok := x.Lo.(*sqldb.Literal); ok {
			if v, isNum := heatKeyFloat(heatLiteral(lit.Val)); isNum {
				b.tightenLo(v)
			}
		}
		if lit, ok := x.Hi.(*sqldb.Literal); ok {
			if v, isNum := heatKeyFloat(heatLiteral(lit.Val)); isNum {
				b.tightenHi(v)
			}
		}
	}
}

// stmtHeatRange maps stmt's restriction on the first stats-domain
// column it constrains into [lo,hi) key space. Unbounded sides clamp to
// the domain edge (0 or 1), so "shipdate >= X" still yields a usable
// interval. ok is false when no FROM table has a stats domain or no
// domain column carries a literal bound — heat then has nothing finer
// than "the whole table" to say, and the caller skips recording.
func (p *Peer) stmtHeatRange(stmt *sqldb.SelectStmt) (lo, hi float64, ok bool) {
	if stmt == nil || p.env.Bootstrap == nil {
		return 0, 0, false
	}
	for _, ref := range stmt.From {
		dom, found := p.env.Bootstrap.StatsDomainRec(ref.Table)
		if !found {
			continue
		}
		for i, col := range dom.Columns {
			if i >= len(dom.Lo) || i >= len(dom.Hi) {
				break
			}
			var b heatBounds
			b.walk(stmt.Where, col)
			if !b.hasLo && !b.hasHi {
				continue
			}
			lo, hi = 0, 1
			if b.hasLo {
				lo = float64(baton.FloatKey(b.lo, dom.Lo[i], dom.Hi[i]))
			}
			if b.hasHi {
				hi = float64(baton.FloatKey(b.hi, dom.Lo[i], dom.Hi[i]))
			}
			if hi < lo {
				lo, hi = hi, lo
			}
			return lo, hi, true
		}
	}
	return 0, 0, false
}

// stmtKeyRange is stmtHeatRange plus the FROM-table list, for the
// slow-query log's attribution fields (coordinator side, once per
// query, so the slice is affordable there).
func (p *Peer) stmtKeyRange(stmt *sqldb.SelectStmt) (tables []string, lo, hi float64, ok bool) {
	if stmt == nil {
		return nil, 0, 0, false
	}
	for _, ref := range stmt.From {
		tables = append(tables, ref.Table)
	}
	lo, hi, ok = p.stmtHeatRange(stmt)
	return tables, lo, hi, ok
}

// recordStmtHeat feeds one served statement's key range into the peer's
// heatmap. Only the data owner calls it (handleSubQuery/handleJoinTask
// side), never the coordinator — each access heats the cluster once no
// matter how many peers the round fanned out to.
func (p *Peer) recordStmtHeat(stmt *sqldb.SelectStmt) {
	if p.pm == nil || p.pm.keyHeat == nil {
		return
	}
	if lo, hi, ok := p.stmtHeatRange(stmt); ok {
		p.pm.keyHeat.RecordRange(lo, hi)
	}
}

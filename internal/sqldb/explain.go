package sqldb

import (
	"fmt"
	"strings"
)

// EXPLAIN surface: ExplainSelect compiles a SELECT the same way the
// executor does — cost-based join order, per-scan access-path choice —
// and reports the choices together with estimated vs actual
// cardinalities (the scans are executed to count actuals, so this is
// EXPLAIN ANALYZE at scan granularity). bpsql's .plan dot command and
// the peer.plan verb render it.

// ExplainScan describes one table access of a compiled plan, in
// execution order.
type ExplainScan struct {
	Table      string
	Alias      string
	Access     string // index-eq(col), index-range(col), full-scan
	Demoted    bool   // range probe rejected: estimated selectivity too high
	EstRows    float64
	ActualRows int64
}

// ExplainPlan is the explainable shape of one SELECT.
type ExplainPlan struct {
	SQL       string
	JoinOrder []string
	Scans     []ExplainScan
}

// ExplainSelect parses and compiles sql, reporting the plan the executor
// would run: join order, access paths, and estimated and actual per-scan
// cardinalities. The statement is not fully executed — only its scans
// are, to obtain actual filtered cardinalities. A statement that does
// not compile returns its compile error.
func (db *DB) ExplainSelect(sql string) (*ExplainPlan, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: EXPLAIN supports SELECT statements only")
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, ref := range sel.From {
		if t := db.table(ref.Table); t != nil {
			db.ensureStats(t)
		}
	}
	p, err := db.compileSelect(sel)
	if err != nil {
		return nil, err
	}
	ep := &ExplainPlan{SQL: sql}
	for _, sp := range p.scans {
		es := ExplainScan{
			Table:      sp.table.Schema().Table,
			Alias:      sp.alias,
			Access:     sp.accessDesc(),
			Demoted:    sp.choice.demoted,
			EstRows:    sp.choice.estRows,
			ActualRows: -1,
		}
		if rows, ferr := sp.scanFiltered(&Stats{}); ferr == nil {
			es.ActualRows = int64(len(rows))
		}
		ep.JoinOrder = append(ep.JoinOrder, sp.alias)
		ep.Scans = append(ep.Scans, es)
	}
	return ep, nil
}

// accessDesc renders the scan's access path choice.
func (s *scanPlan) accessDesc() string {
	path := s.choice.path
	switch {
	case path.index != nil && path.useEq:
		return fmt.Sprintf("index-eq(%s)", path.index.Column)
	case path.index != nil:
		return fmt.Sprintf("index-range(%s)", path.index.Column)
	default:
		return "full-scan"
	}
}

// Render formats the plan for terminals (bpsql .plan, peer.plan verb).
func (ep *ExplainPlan) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %s\n", ep.SQL)
	if len(ep.JoinOrder) > 1 {
		fmt.Fprintf(&b, "  join order: %s\n", strings.Join(ep.JoinOrder, " -> "))
	}
	for _, s := range ep.Scans {
		name := s.Table
		if s.Alias != "" && !strings.EqualFold(s.Alias, s.Table) {
			name = fmt.Sprintf("%s (%s)", s.Table, s.Alias)
		}
		fmt.Fprintf(&b, "  scan %-20s %-20s est=%-10.1f actual=%d", name, s.Access, s.EstRows, s.ActualRows)
		if s.Demoted {
			b.WriteString("  [range probe demoted: low estimated selectivity]")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

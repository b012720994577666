package engine

import (
	"fmt"
	"math"

	"bestpeer/internal/sqldb"
	"bestpeer/internal/telemetry"
)

// Adaptive is the pay-as-you-go adaptive query processor (§5.5,
// Algorithm 2): when a query arrives, the planner retrieves index and
// statistics information, constructs the processing graph, predicts the
// costs of both the P2P engine (Eq. 8) and the MapReduce engine
// (Eq. 11), and executes the cheaper plan. A feedback loop refines the
// selectivity parameters from measured executions.
type Adaptive struct {
	B      Backend
	Opts   Options
	User   string
	Params CostParams
	FB     *Feedback
	// Selectivity estimates the fraction of a table satisfying its
	// per-table conjuncts, typically backed by the published MHIST
	// histograms (§5.1). Nil means no statistics (selectivity 1).
	Selectivity func(table string, conjuncts []sqldb.Expr) float64
	// Span is the query's parent span; the plan phase and the chosen
	// engine's rounds open children under it. Nil disables tracing.
	Span *telemetry.Span
}

// NewAdaptive builds an adaptive engine with default parameters derived
// from the backend's rates.
func NewAdaptive(b Backend, opts Options, user string) *Adaptive {
	return &Adaptive{
		B:      b,
		Opts:   opts,
		User:   user,
		Params: DefaultCostParams(b.Rates()),
		FB:     NewFeedback(),
	}
}

// Plan constructs the processing graph and predicts both engines'
// costs. The returned engine name is "parallel" or "mapreduce"
// ("parallel" also covers the degenerate no-join case).
type Plan struct {
	Engine string
	CBP    float64
	CMR    float64
	Levels []Level
}

// Plan estimates both strategies for the statement.
func (e *Adaptive) Plan(stmt *sqldb.SelectStmt) (*Plan, error) {
	sp := e.Span.StartChild("plan")
	defer sp.End()
	accesses, _, err := resolveAccess(e.B, stmt, sp)
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	levels := e.levelsOf(accesses, stmt)
	p := &Plan{Levels: levels}
	if len(levels) == 0 || e.B.MR() == nil {
		p.Engine = "parallel"
		sp.SetAttr("engine", p.Engine)
		return p, nil
	}
	p.CBP = e.Params.CBP(levels)
	p.CMR = e.Params.CMR(levels)
	if p.CMR < p.CBP {
		p.Engine = "mapreduce"
	} else {
		p.Engine = "parallel"
	}
	sp.SetAttr("engine", p.Engine)
	sp.SetAttr("cbp", fmt.Sprintf("%.0f", p.CBP))
	sp.SetAttr("cmr", fmt.Sprintf("%.0f", p.CMR))
	return p, nil
}

// levelsOf builds the processing graph's join levels (Definition 3):
// one level per join in FROM order after the first table, plus one
// level for GROUP BY when present (f(y) = 1). Sizes come from the table
// index entries' published partition statistics; selectivities come
// from the feedback store with a 1/S(T_i) default (foreign-key joins
// keep the intermediate result near the probe side's size).
func (e *Adaptive) levelsOf(accesses []*tableAccess, stmt *sqldb.SelectStmt) []Level {
	if len(accesses) < 2 {
		return nil
	}
	var levels []Level
	// The first table seeds s(L+1): fold it in as a virtual leaf level
	// with t = 1 (it ships once to wherever processing happens).
	seed := tableSize(accesses[0]) * e.selectivity(accesses[0])
	levels = append(levels, Level{
		Table:      accesses[0].ref.Table,
		SizeBytes:  seed,
		Partitions: 1,
		G:          e.FB.Lookup(accesses[0].ref.Table, 1),
	})
	for _, a := range accesses[1:] {
		size := tableSize(a) * e.selectivity(a)
		def := 1.0
		if size > 0 {
			def = 1 / size
		}
		levels = append(levels, Level{
			Table:      a.ref.Table,
			SizeBytes:  size,
			Partitions: maxInt(len(a.loc.Peers), 1),
			G:          e.FB.Lookup(a.ref.Table, def),
		})
	}
	if len(stmt.GroupBy) > 0 {
		// The GROUP BY level re-partitions the final intermediate result.
		levels = append(levels, Level{
			Table:      "(group by)",
			SizeBytes:  1,
			Partitions: maxInt(len(accesses[len(accesses)-1].loc.Peers), 1),
			G:          1,
		})
	}
	return levels
}

// selectivity applies the statistics module's predicate selectivity to
// a table access.
func (e *Adaptive) selectivity(a *tableAccess) float64 {
	if e.Selectivity == nil {
		return 1
	}
	sel := e.Selectivity(a.ref.Table, a.conjuncts)
	if sel <= 0 || sel > 1 {
		return 1
	}
	return sel
}

// tableSize sums the published partition sizes of a table access.
func tableSize(a *tableAccess) float64 {
	var total float64
	for _, e := range a.loc.Entries {
		total += float64(e.Bytes)
	}
	if total == 0 {
		total = 1
	}
	return total
}

// Execute plans and runs the query with the chosen engine, then feeds
// the measured selectivity back into the statistics module.
func (e *Adaptive) Execute(stmt *sqldb.SelectStmt) (*QueryResult, error) {
	plan, err := e.Plan(stmt)
	if err != nil {
		return nil, err
	}
	telemetry.Default.Counter("engine_adaptive_choices_total", telemetry.L("engine", plan.Engine)).Inc()
	var qr *QueryResult
	switch plan.Engine {
	case "mapreduce":
		mr := &MapReduce{B: e.B, Opts: e.Opts, User: e.User, Span: e.Span}
		qr, err = mr.Execute(stmt)
	default:
		// The P2P branch runs the native fetch-and-process strategy —
		// the "original P2P strategy" the paper's adaptive evaluation
		// switches against MapReduce (§6.1.11). The replicated-join
		// parallel engine (§5.3) remains available as an explicit
		// strategy.
		basic := &Basic{B: e.B, Opts: e.Opts, User: e.User, Span: e.Span}
		qr, err = basic.Execute(stmt)
		if qr != nil {
			qr.Engine = "p2p"
		}
	}
	if err != nil {
		return nil, err
	}
	qr.Engine = "adaptive(" + qr.Engine + ")"
	e.recordFeedback(plan, qr)
	return qr, nil
}

// recordFeedback updates per-table selectivities from the measured
// execution: the observed end-to-end reduction is attributed uniformly
// to the join levels (the paper's statistics module adjusts parameters
// "based on recently measured values").
func (e *Adaptive) recordFeedback(plan *Plan, qr *QueryResult) {
	if len(plan.Levels) < 2 || qr.Result == nil {
		return
	}
	var product float64 = 1
	joins := 0
	for _, lv := range plan.Levels {
		if lv.Table == "(group by)" {
			continue
		}
		product *= lv.SizeBytes
		joins++
	}
	if product <= 0 || joins == 0 {
		return
	}
	out := float64(bytesOf(qr.Result.Rows))
	if out <= 0 {
		out = 1
	}
	ratio := out / product
	g := math.Pow(ratio, 1/float64(joins))
	for _, lv := range plan.Levels {
		if lv.Table == "(group by)" {
			continue
		}
		e.FB.Record(lv.Table, g)
	}
}

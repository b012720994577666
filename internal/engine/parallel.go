package engine

import (
	"bestpeer/internal/sqldb"
	"bestpeer/internal/sqlval"
	"bestpeer/internal/telemetry"
	"bestpeer/internal/vtime"
	"fmt"
)

// Parallel is the parallel P2P processing strategy (§5.3): instead of
// pulling everything to one node, each join level disseminates work to
// a set of processing nodes. The conventional replicated join is used —
// the smaller side (the running intermediate result) is replicated to
// every node holding a partition of the level's table, and each node
// joins its partition locally (Fig. 4). When the query groups or
// aggregates, the last level also pre-aggregates at the processing
// nodes, and the root (the query submitting peer, level 0 of the
// processing graph) merges the partials and produces the final result.
type Parallel struct {
	B         Backend
	Opts      Options
	User      string
	Timestamp uint64
	// Span is the query's parent span; join levels open children under
	// it. Nil disables tracing.
	Span *telemetry.Span
}

// Execute runs the query through the processing graph and charges it
// under the pay-as-you-go model.
func (e *Parallel) Execute(stmt *sqldb.SelectStmt) (*QueryResult, error) {
	qr, err := e.execute(stmt)
	if err == nil {
		qr.chargePayGo(DefaultCostParams(e.B.Rates()))
	}
	return qr, err
}

func (e *Parallel) execute(stmt *sqldb.SelectStmt) (*QueryResult, error) {
	if e.Timestamp == 0 {
		e.Timestamp = e.B.QueryTimestamp()
	}
	rates := e.B.Rates()
	accesses, cross, err := resolveAccess(e.B, stmt, e.Span)
	if err != nil {
		return nil, err
	}
	peers := allPeers(accesses)
	if err := e.B.Gate(peers); err != nil {
		return nil, err
	}
	qr := &QueryResult{Engine: "parallel", Peers: peers, IndexKind: worstIndexKind(accesses)}
	qr.Cost = rates.Overhead()
	var hops int
	for _, a := range accesses {
		hops += a.loc.Hops
	}
	qr.Cost = qr.Cost.Add(rates.NetMsgs(hops))

	// Single-table queries have no join levels; fall back to the basic
	// strategy's machinery (the processing graph degenerates to the
	// root).
	if len(accesses) < 2 {
		basic := &Basic{B: e.B, Opts: e.Opts, User: e.User, Timestamp: e.Timestamp, Span: e.Span}
		res, err := basic.Execute(stmt)
		if err != nil {
			return nil, err
		}
		res.Engine = "parallel"
		return res, nil
	}

	// Level L: fetch the first table's rows to the submitting peer; this
	// seeds the intermediate result that levels L-1..1 replicate.
	basicHelper := &Basic{B: e.B, Opts: e.Opts, User: e.User, Timestamp: e.Timestamp, Span: e.Span}
	seed, err := basicHelper.fetch(accesses[0], "", nil)
	if err != nil {
		return nil, err
	}
	qr.addRound(seed)
	shipped := seed.rows
	// shippedBytes caches bytesOf(shipped), re-measured only when a new
	// intermediate result replaces it, so broadcast costs and the final
	// CPU charge don't re-encode the same rows.
	shippedBytes := bytesOf(shipped)
	shippedBindings := []sqldb.Binding{{Alias: accesses[0].ref.Alias, Schema: accesses[0].subSchema}}
	pending := cross

	// Decompose aggregation so the last join level can pre-aggregate at
	// the processing nodes.
	decomp, aggregated, err := DecomposeAggregates(stmt, func(t string) *sqldb.Schema { return e.B.Schema(t) })
	if err != nil {
		return nil, err
	}

	var partialRows []sqlval.Row
	preAggregated := false
	for i := 1; i < len(accesses); i++ {
		a := accesses[i]
		right := []sqldb.Binding{{Alias: a.ref.Alias, Schema: a.subSchema}}
		lkeys, rkeys, rest := sqldb.EquiJoinConds(pending, shippedBindings, right)
		combined := append(append([]sqldb.Binding{}, shippedBindings...), right...)
		var residual, stillPending []sqldb.Expr
		for _, c := range rest {
			if sqldb.Resolvable(combined, c) {
				residual = append(residual, c)
			} else {
				stillPending = append(stillPending, c)
			}
		}

		last := i == len(accesses)-1
		sp := e.Span.StartChild(fmt.Sprintf("join-level-%d:%s", i, a.ref.Table),
			telemetry.L("peers", fmt.Sprintf("%d", len(a.loc.Peers))))
		task := JoinTask{
			Local:           SubQueryRequest{Stmt: sqldb.BuildSubQuery(a.ref, a.columns, a.conjuncts), User: e.User, Timestamp: e.Timestamp, Trace: sp.Context()},
			Shipped:         shipped,
			ShippedBindings: shippedBindings,
			LocalBinding:    sqldb.Binding{Alias: a.ref.Alias, Schema: a.subSchema},
			ShippedKeys:     lkeys,
			LocalKeys:       rkeys,
			Residual:        residual,
		}
		if last && aggregated && len(stillPending) == 0 {
			task.Partial = decomp.Partial
		}

		// Replicate the intermediate result to every partition of T_i
		// and run the joins in parallel (cost: the broadcast serializes
		// at the sender, W(i) = t(T_i)·s(i+1); the node joins run in
		// parallel — and really do, through the fan-out pool).
		task.ShippedBytes = shippedBytes
		qr.Cost = qr.Cost.Add(rates.NetTransfer(shippedBytes * int64(len(a.loc.Peers))))
		results, err := FanOut(len(a.loc.Peers), func(i int) (*sqldb.Result, error) {
			return e.B.JoinAt(a.loc.Peers[i], task)
		})
		if err != nil {
			sp.SetError(err)
			sp.End()
			return nil, err
		}
		var nodeCost vtime.Cost
		var nextRows []sqlval.Row
		var inbound int64
		for _, res := range results {
			qr.SubQueries++
			qr.BytesScanned += res.Stats.BytesScanned
			qr.BytesFetched += res.Stats.BytesReturned
			qr.RowsScanned += res.Stats.RowsScanned
			nodeCost = vtime.Par(nodeCost, rates.DiskRead(res.Stats.BytesScanned).
				Add(rates.CPUWork(res.Stats.BytesScanned+shippedBytes)))
			inbound += res.Stats.BytesReturned
			nextRows = append(nextRows, res.Rows...)
		}
		qr.Cost = qr.Cost.Add(nodeCost).Add(rates.NetMsgs(len(a.loc.Peers))).Add(rates.NetTransfer(inbound))
		sp.SetVTime(qr.Cost.Total())
		sp.SetAttr("rows", fmt.Sprintf("%d", len(nextRows)))
		sp.End()

		if last && task.Partial != nil {
			partialRows = nextRows
			preAggregated = true
			pending = stillPending
			break
		}
		shipped = nextRows
		shippedBytes = bytesOf(shipped)
		shippedBindings = combined
		pending = stillPending
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("engine: unresolvable predicate %s", sqldb.AndAll(pending))
	}

	// Root: merge partials or project joined rows.
	if aggregated {
		if !preAggregated {
			// The last level could not pre-aggregate (pending residuals);
			// aggregate the joined rows at the root instead.
			res, err := sqldb.ProjectRows(stmt, shippedBindings, shipped)
			if err != nil {
				return nil, err
			}
			qr.Cost = qr.Cost.Add(rates.CPUWork(shippedBytes))
			qr.Result = res
			return qr, nil
		}
		merged, err := sqldb.ProjectRows(decomp.Merge,
			[]sqldb.Binding{{Alias: "partial", Schema: decomp.PartialSchema}}, partialRows)
		if err != nil {
			return nil, err
		}
		qr.Cost = qr.Cost.Add(rates.CPUWork(bytesOf(partialRows)))
		qr.Result = merged
		return qr, nil
	}
	res, err := sqldb.ProjectRows(stmt, shippedBindings, shipped)
	if err != nil {
		return nil, err
	}
	qr.Cost = qr.Cost.Add(rates.CPUWork(shippedBytes))
	qr.Result = res
	return qr, nil
}

// ExecuteJoinTask is the processing-node side of a replicated join; the
// peer package calls it when a JoinTask arrives. localRows are the
// partition rows the node fetched from its own database.
func ExecuteJoinTask(task JoinTask, localRows []sqlval.Row) (*sqldb.Result, error) {
	right := []sqldb.Binding{task.LocalBinding}
	joined, combined, err := hashJoin(task.ShippedBindings, task.Shipped, right, localRows, task.ShippedKeys, task.LocalKeys)
	if err != nil {
		return nil, err
	}
	rows, pending, err := applyResolvable(combined, joined, task.Residual)
	if err != nil {
		return nil, err
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("engine: join task residual %s unresolvable", sqldb.AndAll(pending))
	}
	if task.Partial != nil {
		res, err := sqldb.ProjectRows(task.Partial, combined, rows)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	res := &sqldb.Result{Rows: rows}
	for _, b := range combined {
		res.Columns = append(res.Columns, b.Schema.ColumnNames()...)
	}
	return res, nil
}

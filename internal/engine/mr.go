package engine

import (
	"fmt"
	"strings"

	"bestpeer/internal/mapreduce"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/sqlval"
	"bestpeer/internal/telemetry"
)

// MapReduce is the MapReduce-style engine mounted beside the native P2P
// engines (§5.4): mappers read directly from the BestPeer++ instances
// (each peer's subquery result is one input split), intermediate tuples
// shuffle once per level by the hash of the join key (symmetric hash
// join, Fig. 5), and job outputs land in the mounted DFS. Each join
// level is one job; grouping/aggregation adds a final job — the job
// count that drives the cost model's ϕ·(L−1) term.
type MapReduce struct {
	B         Backend
	Opts      Options
	User      string
	Timestamp uint64
	// Span is the query's parent span; split rounds and jobs open
	// children under it. Nil disables tracing.
	Span *telemetry.Span
}

// Execute runs the query as a chain of MapReduce jobs and charges it
// under the pay-as-you-go model.
func (e *MapReduce) Execute(stmt *sqldb.SelectStmt) (*QueryResult, error) {
	qr, err := e.execute(stmt)
	if err == nil {
		qr.chargePayGo(DefaultCostParams(e.B.Rates()))
	}
	return qr, err
}

func (e *MapReduce) execute(stmt *sqldb.SelectStmt) (*QueryResult, error) {
	cluster := e.B.MR()
	if cluster == nil {
		return nil, fmt.Errorf("engine: MapReduce engine requested but no cluster is mounted")
	}
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
	qr := &QueryResult{Engine: "mapreduce", Peers: peers, IndexKind: worstIndexKind(accesses)}
	qr.Cost = rates.Overhead()

	decomp, aggregated, err := DecomposeAggregates(stmt, func(t string) *sqldb.Schema { return e.B.Schema(t) })
	if err != nil {
		return nil, err
	}

	// splitsFor pulls one table's partitions as input splits (the
	// mapper-side DB connector: local SQL push-down per peer, all
	// connectors reading concurrently like HadoopDB's mappers).
	splitsFor := func(a *tableAccess, sub *sqldb.SelectStmt) ([]mapreduce.Split, error) {
		sp := e.Span.StartChild("splits:"+a.ref.Table, telemetry.L("peers", fmt.Sprintf("%d", len(a.loc.Peers))))
		defer sp.End()
		req := SubQueryRequest{Stmt: sub, User: e.User, Timestamp: e.Timestamp, Trace: sp.Context(), StmtBytes: SubQueryBytes(sub)}
		results, err := FanOut(len(a.loc.Peers), func(i int) (*sqldb.Result, error) {
			return e.B.SubQuery(a.loc.Peers[i], req)
		})
		if err != nil {
			sp.SetError(err)
			return nil, err
		}
		splits := make([]mapreduce.Split, 0, len(results))
		for i, res := range results {
			qr.SubQueries++
			qr.BytesScanned += res.Stats.BytesScanned
			qr.BytesFetched += res.Stats.BytesReturned
			qr.RowsScanned += res.Stats.RowsScanned
			splits = append(splits, mapreduce.Split{
				Source: a.loc.Peers[i],
				Rows:   res.Rows,
				Bytes:  res.Stats.BytesScanned,
			})
		}
		return splits, nil
	}

	// Single-table, no join.
	if len(accesses) == 1 {
		a := accesses[0]
		if aggregated {
			// One job: maps compute per-partition partials (pushed into
			// the local DB), reducers merge per group key.
			splits, err := splitsFor(a, decomp.Partial)
			if err != nil {
				return nil, err
			}
			return e.finishAggregate(qr, cluster, stmt, decomp, splits, 0)
		}
		// Map-only job (the HadoopDB Q1 shape): push selection and
		// projection down, concatenate outputs.
		sub := sqldb.BuildSubQuery(a.ref, a.columns, a.conjuncts)
		splits, err := splitsFor(a, sub)
		if err != nil {
			return nil, err
		}
		job := mapreduce.Job{Name: "select:" + a.ref.Table, Splits: splits, Output: "/query/select", Trace: e.Span.Context()}
		res, err := cluster.Run(job)
		if err != nil {
			return nil, err
		}
		qr.Cost = qr.Cost.Add(res.Cost)
		bindings := []sqldb.Binding{{Alias: a.ref.Alias, Schema: a.subSchema}}
		final, err := sqldb.ProjectRows(stmt, bindings, res.Rows)
		if err != nil {
			return nil, err
		}
		qr.Cost = qr.Cost.Add(rates.NetTransfer(res.OutputBytes))
		qr.Result = final
		return qr, nil
	}

	// Join chain: one symmetric hash-join job per level.
	leftBindings := []sqldb.Binding{{Alias: accesses[0].ref.Alias, Schema: accesses[0].subSchema}}
	leftSplits, err := splitsFor(accesses[0], sqldb.BuildSubQuery(accesses[0].ref, accesses[0].columns, accesses[0].conjuncts))
	if err != nil {
		return nil, err
	}
	leftRows := []sqlval.Row(nil) // nil while left side lives in splits
	pending := cross
	jobIndex := 0

	for i := 1; i < len(accesses); i++ {
		a := accesses[i]
		right := []sqldb.Binding{{Alias: a.ref.Alias, Schema: a.subSchema}}
		lkeys, rkeys, rest := sqldb.EquiJoinConds(pending, leftBindings, right)
		combined := append(append([]sqldb.Binding{}, leftBindings...), right...)
		var residual, still []sqldb.Expr
		for _, c := range rest {
			if sqldb.Resolvable(combined, c) {
				residual = append(residual, c)
			} else {
				still = append(still, c)
			}
		}
		rightSplits, err := splitsFor(a, sqldb.BuildSubQuery(a.ref, a.columns, a.conjuncts))
		if err != nil {
			return nil, err
		}

		var splits []mapreduce.Split
		if leftRows == nil {
			splits = tagSplits(leftSplits, "L")
		} else {
			splits = tagSplits(rowsToSplits(leftRows, cluster.Workers()), "L")
		}
		splits = append(splits, tagSplits(rightSplits, "R")...)

		lb, rb := leftBindings, right
		// Route keys compile once per job; the Map closure runs per row.
		lroute := compileRouteKey(lb, lkeys)
		rroute := compileRouteKey(rb, rkeys)
		job := mapreduce.Job{
			Name:   fmt.Sprintf("join%d:%s", jobIndex, a.ref.Table),
			Splits: splits,
			Trace:  e.Span.Context(),
			Map: func(src string, row sqlval.Row) ([]mapreduce.KV, error) {
				side, route := "L", lroute
				if strings.HasPrefix(src, "R|") {
					side, route = "R", rroute
				}
				key, err := route(row)
				if err != nil {
					return nil, err
				}
				tagged := append(row.Clone(), sqlval.Str(side))
				return []mapreduce.KV{{Key: key, Row: tagged}}, nil
			},
			Reduce: func(_ sqlval.Value, rows []sqlval.Row) ([]sqlval.Row, error) {
				var ls, rs []sqlval.Row
				for _, r := range rows {
					side := r[len(r)-1].AsString()
					body := r[:len(r)-1]
					if side == "L" {
						ls = append(ls, body)
					} else {
						rs = append(rs, body)
					}
				}
				joined, cb, err := hashJoin(lb, ls, rb, rs, lkeys, rkeys)
				if err != nil {
					return nil, err
				}
				out, pend, err := applyResolvable(cb, joined, residual)
				if err != nil {
					return nil, err
				}
				if len(pend) > 0 {
					return nil, fmt.Errorf("engine: residual %s unresolvable in reduce", sqldb.AndAll(pend))
				}
				return out, nil
			},
			Output: fmt.Sprintf("/query/join%d", jobIndex),
		}
		res, err := cluster.Run(job)
		if err != nil {
			return nil, err
		}
		qr.Cost = qr.Cost.Add(res.Cost)
		leftRows = res.Rows
		leftBindings = combined
		pending = still
		jobIndex++
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("engine: unresolvable predicate %s", sqldb.AndAll(pending))
	}

	if aggregated {
		// Final aggregation job over the joined rows: maps emit
		// (group key, row); reducers compute per-group partials.
		splits := rowsToSplits(leftRows, cluster.Workers())
		lb := leftBindings
		route := compileRouteKey(lb, stmt.GroupBy)
		job := mapreduce.Job{
			Name:   "aggregate",
			Splits: splits,
			Trace:  e.Span.Context(),
			Map: func(_ string, row sqlval.Row) ([]mapreduce.KV, error) {
				key, err := route(row)
				if err != nil {
					return nil, err
				}
				return []mapreduce.KV{{Key: key, Row: row}}, nil
			},
			Reduce: func(_ sqlval.Value, rows []sqlval.Row) ([]sqlval.Row, error) {
				res, err := sqldb.ProjectRows(decomp.Partial, lb, rows)
				if err != nil {
					return nil, err
				}
				return res.Rows, nil
			},
			Output: "/query/aggregate",
		}
		res, err := cluster.Run(job)
		if err != nil {
			return nil, err
		}
		qr.Cost = qr.Cost.Add(res.Cost)
		merged, err := sqldb.ProjectRows(decomp.Merge,
			[]sqldb.Binding{{Alias: "partial", Schema: decomp.PartialSchema}}, res.Rows)
		if err != nil {
			return nil, err
		}
		qr.Cost = qr.Cost.Add(rates.NetTransfer(res.OutputBytes))
		qr.Result = merged
		return qr, nil
	}

	final, err := sqldb.ProjectRows(stmt, leftBindings, leftRows)
	if err != nil {
		return nil, err
	}
	qr.Cost = qr.Cost.Add(rates.NetTransfer(bytesOf(leftRows)))
	qr.Result = final
	return qr, nil
}

// finishAggregate runs the merge of single-table aggregation: reducers
// fold the per-peer partial rows per group, the submitting peer applies
// the merge statement.
func (e *MapReduce) finishAggregate(qr *QueryResult, cluster *mapreduce.Cluster, stmt *sqldb.SelectStmt, decomp *Decomposition, splits []mapreduce.Split, jobIndex int) (*QueryResult, error) {
	rates := e.B.Rates()
	pb := []sqldb.Binding{{Alias: "partial", Schema: decomp.PartialSchema}}
	nGroup := len(stmt.GroupBy)
	job := mapreduce.Job{
		Name:   fmt.Sprintf("agg%d", jobIndex),
		Splits: splits,
		Trace:  e.Span.Context(),
		Map: func(_ string, row sqlval.Row) ([]mapreduce.KV, error) {
			// Partial rows start with the group columns g0..g(n-1).
			key := groupKeyOf(row[:nGroup])
			return []mapreduce.KV{{Key: key, Row: row}}, nil
		},
		Reduce: func(_ sqlval.Value, rows []sqlval.Row) ([]sqlval.Row, error) {
			return []sqlval.Row{decomp.MergePartialRows(rows)}, nil
		},
		Output: "/query/agg",
	}
	res, err := cluster.Run(job)
	if err != nil {
		return nil, err
	}
	qr.Cost = qr.Cost.Add(res.Cost)
	merged, err := sqldb.ProjectRows(decomp.Merge, pb, res.Rows)
	if err != nil {
		return nil, err
	}
	qr.Cost = qr.Cost.Add(rates.NetTransfer(res.OutputBytes))
	qr.Result = merged
	return qr, nil
}

// compileRouteKey compiles the shuffle-key function for one job's key
// expressions: single keys route by value, multi-keys by a
// separator-joined rendering (collisions are harmless — reducers
// re-verify equality). Column offsets resolve once here instead of per
// mapped row.
func compileRouteKey(b []sqldb.Binding, keys []sqldb.Expr) func(sqlval.Row) (sqlval.Value, error) {
	if len(keys) == 0 {
		return func(sqlval.Row) (sqlval.Value, error) { return sqlval.Null(), nil }
	}
	if len(keys) == 1 {
		return sqldb.CompileExprOver(b, keys[0])
	}
	evals := make([]sqldb.CompiledExpr, len(keys))
	for i, k := range keys {
		evals[i] = sqldb.CompileExprOver(b, k)
	}
	return func(row sqlval.Row) (sqlval.Value, error) {
		var sb strings.Builder
		for i, eval := range evals {
			v, err := eval(row)
			if err != nil {
				return sqlval.Null(), err
			}
			if i > 0 {
				sb.WriteByte(0x1f)
			}
			sb.WriteString(v.String())
		}
		return sqlval.Str(sb.String()), nil
	}
}

// groupKeyOf renders leading group columns into one routing key.
func groupKeyOf(vals sqlval.Row) sqlval.Value {
	if len(vals) == 0 {
		return sqlval.Null()
	}
	if len(vals) == 1 {
		return vals[0]
	}
	var sb strings.Builder
	for i, v := range vals {
		if i > 0 {
			sb.WriteByte(0x1f)
		}
		sb.WriteString(v.String())
	}
	return sqlval.Str(sb.String())
}

// tagSplits prefixes split sources with a side tag consumed by the join
// mapper.
func tagSplits(splits []mapreduce.Split, tag string) []mapreduce.Split {
	out := make([]mapreduce.Split, len(splits))
	for i, s := range splits {
		s.Source = tag + "|" + s.Source
		out[i] = s
	}
	return out
}

// rowsToSplits partitions materialized rows into n splits (reading a
// previous job's DFS output as the next job's input).
func rowsToSplits(rows []sqlval.Row, n int) []mapreduce.Split {
	if n < 1 {
		n = 1
	}
	out := make([]mapreduce.Split, n)
	for i := range out {
		out[i].Source = fmt.Sprintf("dfs-part-%d", i)
	}
	for i, row := range rows {
		p := i % n
		out[p].Rows = append(out[p].Rows, row)
		out[p].Bytes += int64(row.EncodedSize())
	}
	// Drop empty splits to avoid zero-work map tasks.
	var filtered []mapreduce.Split
	for _, s := range out {
		if len(s.Rows) > 0 {
			filtered = append(filtered, s)
		}
	}
	if filtered == nil {
		filtered = out[:1]
	}
	return filtered
}

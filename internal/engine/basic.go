package engine

import (
	"fmt"

	"bestpeer/internal/indexer"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/sqlval"
	"bestpeer/internal/telemetry"
	"bestpeer/internal/vtime"
)

// Basic is the fetch-and-process strategy (§5.2): decompose the query
// into single-table subqueries, push them to the data owner peers found
// through the indexes, pull the intermediate results into MemTables at
// the query submitting peer, and finish the joins and aggregation
// there. It carries the paper's three optimizations: index caching (in
// the locator), bloom joins for equi-joins, and the single-peer
// shortcut used by the throughput benchmark.
type Basic struct {
	B    Backend
	Opts Options
	User string
	// Timestamp is the query's logical submission time; zero means
	// "stamp at Execute from the backend's clock". One engine value
	// serves one query (Definition 2: resubmission takes a fresh stamp).
	Timestamp uint64
	// Span is the query's parent span (minted at Peer.Query); rounds
	// open children under it. Nil disables tracing.
	Span *telemetry.Span
}

// fetchRound pulls one table's rows from all its data owner peers and
// charges the round's cost: remote scans run in parallel; the returned
// streams serialize into the submitting peer's inbound link (push-based
// transfer, §6.1.7).
type fetchRound struct {
	rows        []sqlval.Row
	cost        vtime.Cost
	fetched     int64
	scanned     int64
	rowsScanned int64
	subCalls    int
	peerCount   int
}

func (e *Basic) fetch(a *tableAccess, bloomCol string, bloom *Bloom) (*fetchRound, error) {
	sp := e.Span.StartChild("fetch:"+a.ref.Table, telemetry.L("peers", fmt.Sprintf("%d", len(a.loc.Peers))))
	defer sp.End()
	stmt := sqldb.BuildSubQuery(a.ref, a.columns, a.conjuncts)
	round := &fetchRound{peerCount: len(a.loc.Peers)}
	rates := e.B.Rates()
	req := SubQueryRequest{Stmt: stmt, User: e.User, Timestamp: e.Timestamp, Trace: sp.Context(), StmtBytes: SubQueryBytes(stmt)}
	if bloom != nil && !e.Opts.DisableBloomJoin {
		req.BloomColumn = bloomCol
		req.Bloom = bloom
	}
	results, err := FanOut(len(a.loc.Peers), func(i int) (*sqldb.Result, error) {
		return e.B.SubQuery(a.loc.Peers[i], req)
	})
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	var total int
	for _, res := range results {
		total += len(res.Rows)
	}
	round.rows = make([]sqlval.Row, 0, total)
	var remote vtime.Cost
	var inboundBytes int64
	for _, res := range results {
		if req.Bloom != nil {
			// The filter itself ships to the peer.
			round.cost = round.cost.Add(rates.NetTransfer(req.Bloom.SizeBytes()))
		}
		round.rows = append(round.rows, res.Rows...)
		round.fetched += res.Stats.BytesReturned
		round.scanned += res.Stats.BytesScanned
		round.rowsScanned += res.Stats.RowsScanned
		round.subCalls++
		remote = vtime.Par(remote, rates.DiskRead(res.Stats.BytesScanned).Add(rates.CPUWork(res.Stats.BytesScanned)))
		inboundBytes += res.Stats.BytesReturned
	}
	round.cost = round.cost.Add(remote)
	round.cost = round.cost.Add(rates.NetMsgs(round.peerCount)).Add(rates.NetTransfer(inboundBytes))
	if e.Opts.SimulatePullTransfer {
		round.cost = round.cost.Add(rates.PullDelay(1))
	}
	sp.SetVTime(round.cost.Total())
	sp.SetAttr("rows", fmt.Sprintf("%d", len(round.rows)))
	return round, nil
}

// Execute runs the query and charges it under the pay-as-you-go model.
func (e *Basic) Execute(stmt *sqldb.SelectStmt) (*QueryResult, error) {
	qr, err := e.execute(stmt)
	if err == nil {
		qr.chargePayGo(DefaultCostParams(e.B.Rates()))
	}
	return qr, err
}

func (e *Basic) execute(stmt *sqldb.SelectStmt) (*QueryResult, error) {
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
	qr := &QueryResult{Engine: "basic", Peers: peers, IndexKind: worstIndexKind(accesses)}
	qr.Cost = rates.Overhead()
	var indexHops int
	for _, a := range accesses {
		indexHops += a.loc.Hops
	}
	qr.Cost = qr.Cost.Add(rates.NetMsgs(indexHops))

	if len(peers) == 0 {
		res, err := sqldb.ProjectRows(stmt, bindingsOf(accesses), nil)
		if err != nil {
			return nil, err
		}
		qr.Result = res
		return qr, nil
	}

	// Single-peer optimization: ship the whole SQL to the one peer that
	// has everything and skip the final processing phase (§6.2.3).
	if peer, ok := singleCommonPeer(accesses); ok && !e.Opts.DisableSinglePeer {
		sp := e.Span.StartChild("single-peer", telemetry.L("peer", peer))
		res, err := e.B.SubQuery(peer, SubQueryRequest{Stmt: stmt, User: e.User, Timestamp: e.Timestamp, Trace: sp.Context(), StmtBytes: SubQueryBytes(stmt)})
		if err != nil {
			sp.SetError(err)
			sp.End()
			return nil, err
		}
		qr.Engine = "single-peer"
		qr.Result = res
		qr.SubQueries = 1
		qr.BytesFetched = res.Stats.BytesReturned
		qr.BytesScanned = res.Stats.BytesScanned
		qr.RowsScanned = res.Stats.RowsScanned
		qr.Cost = qr.Cost.
			Add(rates.DiskRead(res.Stats.BytesScanned)).
			Add(rates.CPUWork(res.Stats.BytesScanned)).
			Add(rates.NetTransfer(res.Stats.BytesReturned))
		sp.SetVTime(qr.Cost.Total())
		sp.End()
		return qr, nil
	}

	// Single-table aggregates: two-phase aggregation (partials at the
	// data owners, merge at the submitting peer).
	if len(accesses) == 1 {
		a := accesses[0]
		if d, ok, err := DecomposeAggregates(stmt, func(t string) *sqldb.Schema { return e.B.Schema(t) }); err != nil {
			return nil, err
		} else if ok {
			sp := e.Span.StartChild("partial-agg:"+a.ref.Table, telemetry.L("peers", fmt.Sprintf("%d", len(a.loc.Peers))))
			req := SubQueryRequest{Stmt: d.Partial, User: e.User, Timestamp: e.Timestamp, Trace: sp.Context(), StmtBytes: SubQueryBytes(d.Partial)}
			results, err := FanOut(len(a.loc.Peers), func(i int) (*sqldb.Result, error) {
				return e.B.SubQuery(a.loc.Peers[i], req)
			})
			if err != nil {
				sp.SetError(err)
				sp.End()
				return nil, err
			}
			var partialRows []sqlval.Row
			var remote vtime.Cost
			var inbound int64
			for _, res := range results {
				partialRows = append(partialRows, res.Rows...)
				qr.SubQueries++
				qr.BytesFetched += res.Stats.BytesReturned
				qr.BytesScanned += res.Stats.BytesScanned
				qr.RowsScanned += res.Stats.RowsScanned
				remote = vtime.Par(remote, rates.DiskRead(res.Stats.BytesScanned).Add(rates.CPUWork(res.Stats.BytesScanned)))
				inbound += res.Stats.BytesReturned
			}
			qr.Cost = qr.Cost.Add(remote).Add(rates.NetMsgs(len(a.loc.Peers))).Add(rates.NetTransfer(inbound))
			if e.Opts.SimulatePullTransfer {
				qr.Cost = qr.Cost.Add(rates.PullDelay(1))
			}
			sp.SetVTime(qr.Cost.Total())
			sp.End()
			merged, err := sqldb.ProjectRows(d.Merge, []sqldb.Binding{{Alias: "partial", Schema: d.PartialSchema}}, partialRows)
			if err != nil {
				return nil, err
			}
			qr.Cost = qr.Cost.Add(rates.CPUWork(qr.BytesFetched))
			qr.Result = merged
			return qr, nil
		}
	}

	// General case: fetch each table in FROM order, joining left-deep at
	// the submitting peer (MemTables + bulk insert in the paper; here the
	// fetched rows are held and joined in memory the same way).
	cur := []sqldb.Binding{{Alias: accesses[0].ref.Alias, Schema: accesses[0].subSchema}}
	round, err := e.fetch(accesses[0], "", nil)
	if err != nil {
		return nil, err
	}
	rows := round.rows
	qr.addRound(round)
	pending := cross
	// rowsBytes caches bytesOf(rows), measured once per working set, so
	// the per-level and final CPU charges don't re-encode the same rows.
	var rowsBytes int64

	for i := 1; i < len(accesses); i++ {
		a := accesses[i]
		right := []sqldb.Binding{{Alias: a.ref.Alias, Schema: a.subSchema}}
		lkeys, rkeys, rest := sqldb.EquiJoinConds(pending, cur, right)

		// Bloom join: hash the left side's join key and let the remote
		// peers pre-filter (single-column keys only).
		var bloom *Bloom
		var bloomCol string
		if len(lkeys) == 1 && !e.Opts.DisableBloomJoin {
			if ref, ok := rkeys[0].(*sqldb.ColumnRef); ok {
				bloom = NewBloom(len(rows))
				keyOf := sqldb.CompileExprOver(cur, lkeys[0])
				for _, row := range rows {
					v, err := keyOf(row)
					if err != nil {
						return nil, err
					}
					bloom.Add(v)
				}
				bloomCol = ref.Column
			}
		}
		round, err := e.fetch(a, bloomCol, bloom)
		if err != nil {
			return nil, err
		}
		qr.addRound(round)

		joined, next, err := hashJoin(cur, rows, right, round.rows, lkeys, rkeys)
		if err != nil {
			return nil, err
		}
		// Apply newly resolvable conditions.
		rows, pending, err = applyResolvable(next, joined, rest)
		if err != nil {
			return nil, err
		}
		cur = next
		rowsBytes = bytesOf(rows)
		// Final processing happens on the submitting peer's single node.
		qr.Cost = qr.Cost.Add(rates.CPUWork(rowsBytes))
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("engine: unresolvable predicate %s", sqldb.AndAll(pending))
	}
	if len(accesses) == 1 {
		rowsBytes = bytesOf(rows) // no join level measured the seed
	}

	res, err := sqldb.ProjectRows(stmt, cur, rows)
	if err != nil {
		return nil, err
	}
	qr.Cost = qr.Cost.Add(rates.CPUWork(rowsBytes))
	qr.Result = res
	return qr, nil
}

func (qr *QueryResult) addRound(r *fetchRound) {
	qr.Cost = qr.Cost.Add(r.cost)
	qr.BytesFetched += r.fetched
	qr.BytesScanned += r.scanned
	qr.RowsScanned += r.rowsScanned
	qr.SubQueries += r.subCalls
}

// bindingsOf builds the full-subschema binding list of the FROM clause.
func bindingsOf(accesses []*tableAccess) []sqldb.Binding {
	out := make([]sqldb.Binding, len(accesses))
	for i, a := range accesses {
		out[i] = sqldb.Binding{Alias: a.ref.Alias, Schema: a.subSchema}
	}
	return out
}

// worstIndexKind reports the least selective index kind used across the
// FROM tables (range > column > table).
func worstIndexKind(accesses []*tableAccess) indexer.IndexKind {
	kind := indexer.KindRange
	rank := map[indexer.IndexKind]int{
		indexer.KindRange: 0, indexer.KindColumn: 1, indexer.KindTable: 2, indexer.KindNone: 3,
	}
	for _, a := range accesses {
		if rank[a.loc.Kind] > rank[kind] {
			kind = a.loc.Kind
		}
	}
	return kind
}

// hashJoin joins left rows with right rows on the key expressions,
// producing combined rows (left columns then right columns) and the
// combined binding list. Empty keys produce the cartesian product.
func hashJoin(lb []sqldb.Binding, lrows []sqlval.Row, rb []sqldb.Binding, rrows []sqlval.Row, lkeys, rkeys []sqldb.Expr) ([]sqlval.Row, []sqldb.Binding, error) {
	next := append(append([]sqldb.Binding{}, lb...), rb...)
	if len(lkeys) == 0 {
		out := make([]sqlval.Row, 0, len(lrows)*len(rrows))
		for _, l := range lrows {
			for _, r := range rrows {
				out = append(out, combinedRow(l, r))
			}
		}
		return out, next, nil
	}
	// Equi-joins here are foreign-key shaped (TPC-H), so the output is
	// near the probe side's cardinality; size the slice accordingly.
	out := make([]sqlval.Row, 0, len(lrows))
	build := make(map[uint64][]sqlval.Row, len(rrows))

	// Fast path: when every key is a bare column reference, resolve the
	// offsets once and hash/compare each side's key columns in a tight
	// loop over the rows — no closure dispatch, no per-key error path.
	loffs, lok := sqldb.JoinKeyOffsets(lb, lkeys)
	roffs, rok := sqldb.JoinKeyOffsets(rb, rkeys)
	if lok && rok {
		for _, r := range rrows {
			h := sqldb.HashKeyOffsets(r, roffs)
			build[h] = append(build[h], r)
		}
		for _, l := range lrows {
			h := sqldb.HashKeyOffsets(l, loffs)
		probeFast:
			for _, r := range build[h] {
				for i := range loffs {
					lv, rv := l[loffs[i]], r[roffs[i]]
					if lv.IsNull() || rv.IsNull() || !sqlval.Equal(lv, rv) {
						continue probeFast
					}
				}
				out = append(out, combinedRow(l, r))
			}
		}
		return out, next, nil
	}

	rhash, revals := sqldb.CompileJoinKey(rb, rkeys)
	lhash, levals := sqldb.CompileJoinKey(lb, lkeys)
	for _, r := range rrows {
		h, err := rhash(r)
		if err != nil {
			return nil, nil, err
		}
		build[h] = append(build[h], r)
	}
	for _, l := range lrows {
		h, err := lhash(l)
		if err != nil {
			return nil, nil, err
		}
	probe:
		for _, r := range build[h] {
			for i := range levals {
				lv, err := levals[i](l)
				if err != nil {
					return nil, nil, err
				}
				rv, err := revals[i](r)
				if err != nil {
					return nil, nil, err
				}
				if lv.IsNull() || rv.IsNull() || !sqlval.Equal(lv, rv) {
					continue probe
				}
			}
			out = append(out, combinedRow(l, r))
		}
	}
	return out, next, nil
}

func combinedRow(l, r sqlval.Row) sqlval.Row {
	nr := make(sqlval.Row, 0, len(l)+len(r))
	nr = append(nr, l...)
	return append(nr, r...)
}

// applyResolvable filters rows by the now-resolvable conditions and
// returns the still-pending ones.
func applyResolvable(b []sqldb.Binding, rows []sqlval.Row, conds []sqldb.Expr) ([]sqlval.Row, []sqldb.Expr, error) {
	var applicable, pending []sqldb.Expr
	for _, c := range conds {
		if sqldb.Resolvable(b, c) {
			applicable = append(applicable, c)
		} else {
			pending = append(pending, c)
		}
	}
	if len(applicable) == 0 {
		return rows, pending, nil
	}
	match := sqldb.CompilePredicates(b, applicable)
	kept := rows[:0]
	for _, row := range rows {
		ok, err := match(row)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			kept = append(kept, row)
		}
	}
	return kept, pending, nil
}

func bytesOf(rows []sqlval.Row) int64 {
	var n int64
	for _, r := range rows {
		n += int64(r.EncodedSize())
	}
	return n
}

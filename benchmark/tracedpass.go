package main

import (
	"fmt"
	"time"

	"bestpeer/internal/engine"
	"bestpeer/internal/peer"
	"bestpeer/internal/pnet"
	"bestpeer/internal/serving"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/sqlval"
)

// The echo peer is a harness-owned endpoint on the cluster's network,
// reached from the client side over the same listener as the sessions.
// It prices the transport alone: a 64-byte round trip, and a round trip
// whose reply is an operation's own serving.QueryReply.
const (
	echoPeer      = "bench-echo"
	msgEcho       = "bench.echo"
	msgEchoResult = "bench.echo_result"
	hitProbeSQL   = "SELECT COUNT(*) FROM nation"
)

// observations collects per-operation values by metric name, in
// operation order.
type observations map[string][]float64

func (o observations) add(name string, v float64) { o[name] = append(o[name], v) }

// mean is how counts are reported: they repeat exactly for a seed.
func (o observations) mean(name string) float64 { return mean(o[name]) }

func (o observations) sum(name string) float64 {
	var sum float64
	for _, v := range o[name] {
		sum += v
	}
	return sum
}

// traceBlocks is how many runs of consecutive operations the traced pass
// is cut into for its timings.
const traceBlocks = 10

// blockMeans cuts the series into traceBlocks runs of consecutive
// operations and returns each run's mean. The shape decks make every run
// hold the same mix of shapes.
func (o observations) blockMeans(name string) []float64 {
	vals := o[name]
	n := len(vals) / traceBlocks
	if n == 0 {
		return []float64{mean(vals)}
	}
	out := make([]float64, traceBlocks)
	for b := range out {
		out[b] = mean(vals[b*n : (b+1)*n])
	}
	return out
}

// typical is how times are reported: the median over blocks of each
// block's mean. Within a block the mean weighs every shape by its share,
// which the median of a mix of shapes tenfold apart in cost does not;
// across blocks the median drops the ones a collector pause or a
// neighbour's burst landed in, which a mean over 200 operations cannot
// (one 20 ms stall moves it by 0.1 ms).
func (o observations) typical(name string) float64 { return median(o.blockMeans(name)) }

// tracedPass replays the first cfg.traceOps operations of client 0's
// seeded sequence on one session, sequentially, with nothing else
// running. Each operation is timed through the TCP session and then
// replayed in stages against the public functions of each layer:
// Peer.Query in process, then parse, locate, the shipped subquery run
// locally at one owner and one Peer.SubQuery per data owner, then the
// cache stamp and the two transport echoes. The session runs variant
// 0's statement, Peer.Query variant 1's and the stages variant 2's: the
// same shape with other parameters, so that no replay finds the plan
// caches warmed by the step before it unless the window's own ops would
// (statements that recur, recur in all three). Counts taken here repeat
// exactly for a seed.
func tracedPass(c *cluster, cfg config, gens [3]*generator, tr *tracer) (observations, error) {
	obs := make(observations)
	cl, front := c.sessions[0], c.fronts[0]
	peers := c.net.Peers()
	cold := peers[len(peers)-1] // index-cache-off probes run here, away from the session's peer

	var echoReply serving.QueryReply
	ep := c.net.Net.Join(echoPeer)
	ep.Handle(msgEcho, func(pnet.Message) (pnet.Message, error) {
		return pnet.Message{Payload: make([]byte, 64), Size: 64}, nil
	})
	ep.Handle(msgEchoResult, func(pnet.Message) (pnet.Message, error) {
		return pnet.Message{Payload: echoReply, Size: 64}, nil
	})
	defer c.net.Net.Leave(echoPeer)
	c.cnet.AddRemotePeer(echoPeer, c.lis.Addr())
	defer c.cnet.RemoveRemotePeer(echoPeer)
	cep := c.cnet.Join("bench-echo-client")
	defer c.cnet.Leave("bench-echo-client")

	// A known cache state, so that hits and misses, and with them the
	// message counts, repeat exactly: every peer's result cache emptied,
	// then what the workload keeps cached loaded again.
	for _, p := range peers {
		c.net.ServingServer(p.ID()).InvalidateCache()
	}
	warm := []op{{sql: hitProbeSQL, mode: serving.CacheUse}}
	if cfg.workload == wlDashboardCached || cfg.workload == wlMixedIngest {
		warm = append(warm, gens[0].dash...)
	}
	for _, o := range warm {
		if _, err := cl.Query(o.sql, o.mode); err != nil {
			return nil, fmt.Errorf("loading the result cache: %w", err)
		}
	}

	for i := 0; i < cfg.traceOps; i++ {
		o, forQuery, forStages := gens[0].next(), gens[1].next(), gens[2].next()
		opID := i + 1
		root := tr.start("op", 0, opID)

		// The pass runs one call at a time, so a network call that
		// follows harness work finds the runtime's pollers parked and
		// pays their wake-up; back-to-back calls, as in the measured
		// window, do not. Each timed round trip therefore follows another
		// on the same connection: the session query follows a cache-hit
		// probe (itself timed as the hit path), the echoes follow an
		// untimed echo.
		t0 := time.Now()
		probe, err := cl.Query(hitProbeSQL, serving.CacheUse)
		if err != nil {
			return nil, fmt.Errorf("hit probe: %w", err)
		}
		if !probe.CacheHit {
			return nil, fmt.Errorf("hit probe %q missed the result cache", hitProbeSQL)
		}
		obs.add("serving.hit_path_ms", ms(time.Since(t0)))
		msgs0 := c.net.Net.Stats().Messages
		bytes0 := c.cnet.Stats().BytesSent
		id := tr.start("client.query", root, opID)
		out, err := cl.Query(o.sql, o.mode)
		clientD := tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("traced %q: %w", o.sql, err)
		}
		obs.add("client.query_ms", ms(clientD))
		obs.add("pnet.msgs_per_op", float64(c.net.Net.Stats().Messages-msgs0))
		obs.add("pnet.reply_bytes_per_op", float64(c.cnet.Stats().BytesSent-bytes0-int64(len(o.sql))))
		obs.add("serving.queue_wait_ms", ms(out.QueueWait))

		id = tr.start("peer.query", root, opID)
		qr, err := front.Query(forQuery.sql, "", peer.StrategyBasic, engine.Options{})
		queryD := tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("traced Peer.Query %q: %w", forQuery.sql, err)
		}
		obs.add("peer.query_ms", ms(queryD))
		obs.add("engine.subqueries_per_op", float64(qr.SubQueries))
		obs.add("engine.peers_per_op", float64(len(qr.Peers)))
		obs.add("engine.bytes_fetched_per_op", float64(qr.BytesFetched))
		obs.add("sqldb.rows_scanned_per_op", float64(qr.RowsScanned))
		obs.add("rows_returned", float64(len(qr.Result.Rows)))

		st, err := replayStages(c, front, cold, forStages.sql, tr, root, opID)
		if err != nil {
			return nil, fmt.Errorf("traced replay %q: %w", forStages.sql, err)
		}
		obs.add("sqldb.parse_ms", ms(st.parse))
		obs.add("indexer.locate_ms", ms(st.locate))
		obs.add("indexer.locate_cold_ms", ms(st.locateCold))
		obs.add("baton.hops_per_lookup", st.hops)
		obs.add("indexer.peers_per_locate", st.locatedPeers)
		obs.add("peer.subquery_max_ms", ms(st.subMax))
		obs.add("peer.subquery_median_ms", ms(st.subMedian))
		obs.add("peer.subquery_sum_ms", ms(st.subSum))
		obs.add("sqldb.local_query_ms", ms(st.local))
		obs.add("engine.self_ms", ms(queryD-st.parse-st.locate-st.subMax))

		id = tr.start("serving.stamp", root, opID)
		c.net.ClusterTableVersions(st.tables)
		stampD := tr.end(id)
		obs.add("serving.stamp_ms", ms(stampD))

		if _, err := cep.Call(echoPeer, msgEcho, make([]byte, 64), 64); err != nil {
			return nil, fmt.Errorf("echo: %w", err)
		}
		id = tr.start("pnet.echo", root, opID)
		_, err = cep.Call(echoPeer, msgEcho, make([]byte, 64), 64)
		echoD := tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("echo: %w", err)
		}
		obs.add("pnet.echo_rtt_ms", ms(echoD))

		echoReply = serving.QueryReply{Result: out.Result, Engine: out.Engine, VTime: out.VTime, CacheHit: out.CacheHit, QueueWait: out.QueueWait}
		id = tr.start("pnet.echo_result", root, opID)
		_, err = cep.Call(echoPeer, msgEchoResult, make([]byte, len(o.sql)), int64(len(o.sql)))
		resultD := tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("echo result: %w", err)
		}
		obs.add("pnet.result_rtt_ms", ms(resultD))
		tr.end(root)

		// The budget: what the staged replays explain of this op's
		// client-observed time. A hit stops after the stamp and the
		// cache; a miss also queues and runs Peer.Query.
		var missPath time.Duration
		if !out.CacheHit {
			missPath = out.QueueWait + queryD
		}
		obs.add("budget.miss_path_ms", ms(missPath))
		explained := resultD + stampD + missPath
		obs.add("budget.explained_ms", ms(explained))
	}

	return obs, nil
}

// tablePlan is one FROM table of the replayed plan.
type tablePlan struct {
	binding []sqldb.Binding // the table's alias and the columns the statement needs
	owners  []string        // the data owners Locate named
	rows    []sqlval.Row    // what the owners returned
}

// stages is one operation's staged replay.
type stages struct {
	tables       []string
	parse        time.Duration
	locate       time.Duration // index cache on, summed over FROM tables
	locateCold   time.Duration // index cache off at another peer
	hops         float64       // overlay hops of the cold locates
	locatedPeers float64       // data owners per locate, mean over tables
	subMax       time.Duration // slowest owner's SubQuery, summed over tables
	subMedian    time.Duration
	subSum       time.Duration // every owner's SubQuery, one after another
	local        time.Duration // first table's subquery on one owner's DB

	// The plan as replayed, so a test can hold it against Peer.Query.
	plan       []tablePlan
	subqueries int                   // SubQuery calls made
	fetched    int64                 // bytes the owners returned
	whole      bool                  // one peer held everything and was sent the statement whole
	decomp     *engine.Decomposition // set when the owners computed partial aggregates
}

// singleOwner reports whether one and the same peer is the only owner of
// every table: the engine then ships it the whole statement.
func singleOwner(plan []tablePlan) bool {
	for _, t := range plan {
		if len(t.owners) != 1 || t.owners[0] != plan[0].owners[0] {
			return false
		}
	}
	return true
}

// replayStages walks the basic engine's plan for sql from outside: every
// FROM table located, then the same subqueries the engine ships (the
// whole statement when one peer owns everything, partial aggregates for
// single-table aggregation, else one selection per table with a bloom
// filter from the first table's rows on the second table of an
// equi-join), issued one owner at a time so each owner's time is
// visible. TestReplayMatchesPeerQuery holds it against Peer.Query.
func replayStages(c *cluster, front, cold *peer.Peer, sql string, tr *tracer, parent, opID int) (stages, error) {
	var st stages
	replay := tr.start("replay", parent, opID)
	defer tr.end(replay)

	id := tr.start("sqldb.parse", replay, opID)
	stmt, err := sqldb.ParseSelect(sql)
	st.parse = tr.end(id)
	if err != nil {
		return st, err
	}
	st.tables = sqldb.ReferencedTables(stmt)

	schemas := make([]*sqldb.Schema, len(stmt.From))
	for i, ref := range stmt.From {
		if schemas[i] = front.Schema(ref.Table); schemas[i] == nil {
			return st, fmt.Errorf("unknown table %s", ref.Table)
		}
	}
	perTable, cross := sqldb.SplitConjunctsPerTable(stmt.Where, stmt.From, schemas)

	st.plan = make([]tablePlan, len(stmt.From))
	subs := make([]*sqldb.SelectStmt, len(stmt.From))
	for i, ref := range stmt.From {
		cols := sqldb.NeededColumns(stmt, ref, schemas[i])
		subSchema, err := sqldb.SubSchema(schemas[i], cols)
		if err != nil {
			return st, err
		}

		id = tr.start("indexer.locate", replay, opID)
		loc, err := front.Locate(ref.Table, perTable[i], cols)
		st.locate += tr.end(id)
		if err != nil {
			return st, err
		}
		st.locatedPeers += float64(len(loc.Peers)) / float64(len(stmt.From))

		cold.Locator().SetCache(false)
		id = tr.start("indexer.locate_cold", replay, opID)
		coldLoc, err := cold.Locate(ref.Table, perTable[i], cols)
		st.locateCold += tr.end(id)
		cold.Locator().SetCache(true)
		if err != nil {
			return st, err
		}
		st.hops += float64(coldLoc.Hops)

		st.plan[i] = tablePlan{binding: []sqldb.Binding{{Alias: ref.Alias, Schema: subSchema}}, owners: loc.Peers}
		subs[i] = sqldb.BuildSubQuery(ref, cols, perTable[i])
	}
	if singleOwner(st.plan) {
		st.whole, subs = true, []*sqldb.SelectStmt{stmt}
	} else if len(stmt.From) == 1 {
		d, ok, err := engine.DecomposeAggregates(stmt, front.Schema)
		if err != nil {
			return st, err
		}
		if ok {
			st.decomp, subs[0] = d, d.Partial
		}
	}

	timestamp := front.QueryTimestamp()
	for i, sub := range subs {
		t := &st.plan[i]
		req := engine.SubQueryRequest{Stmt: sub, Timestamp: timestamp, StmtBytes: engine.SubQueryBytes(sub)}
		if i == 1 {
			first := st.plan[0]
			if lkeys, rkeys, _ := sqldb.EquiJoinConds(cross, first.binding, t.binding); len(lkeys) == 1 {
				if cr, ok := rkeys[0].(*sqldb.ColumnRef); ok {
					req.Bloom = engine.NewBloom(len(first.rows))
					req.BloomColumn = cr.Column
					keyOf := sqldb.CompileExprOver(first.binding, lkeys[0])
					for _, row := range first.rows {
						v, err := keyOf(row)
						if err != nil {
							return st, err
						}
						req.Bloom.Add(v)
					}
				}
			}
		}

		if i == 0 && len(t.owners) > 0 {
			// Before the owners see the subquery, so its plan is as
			// cold here as it will be there.
			last := t.owners[len(t.owners)-1]
			id = tr.start("sqldb.local_query", replay, opID)
			_, err = c.net.PeerByID(last).DB().ExecStmt(sub)
			st.local = tr.end(id)
			if err != nil {
				return st, err
			}
		}

		var times []float64
		for _, owner := range t.owners {
			id = tr.start("peer.subquery", replay, opID)
			res, err := front.SubQuery(owner, req)
			times = append(times, float64(tr.end(id)))
			if err != nil {
				return st, err
			}
			st.subqueries++
			st.fetched += res.Stats.BytesReturned
			t.rows = append(t.rows, res.Rows...)
		}
		st.subMax += time.Duration(maxOf(times))
		st.subMedian += time.Duration(median(times))
		for _, d := range times {
			st.subSum += time.Duration(d)
		}
	}
	return st, nil
}

package peer

import (
	"errors"
	"fmt"
	"time"

	"bestpeer/internal/accesscontrol"
	"bestpeer/internal/engine"
	"bestpeer/internal/indexer"
	"bestpeer/internal/mapreduce"
	"bestpeer/internal/pnet"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/telemetry"
	"bestpeer/internal/vtime"
)

// Strategy selects the query processing engine.
type Strategy string

// The available strategies. StrategyAdaptive is the paper's default
// (§5.5); the benchmark configuration of §6.1.2 pins StrategyBasic.
const (
	StrategyBasic    Strategy = "basic"
	StrategyParallel Strategy = "parallel"
	StrategyMR       Strategy = "mapreduce"
	StrategyAdaptive Strategy = "adaptive"
)

// Per-strategy query counters, resolved once: Query is the hot entry
// point.
var (
	queryCounters = map[string]*telemetry.Counter{}
	resubmissions = telemetry.Default.Counter("peer_query_resubmissions_total")
)

func init() {
	for _, s := range []Strategy{StrategyBasic, StrategyParallel, StrategyMR, StrategyAdaptive} {
		queryCounters[string(s)] = telemetry.Default.Counter("peer_queries_total", telemetry.L("strategy", string(s)))
	}
}

// Query parses and executes a SQL query on behalf of user, using the
// given strategy. It is the peer's online data flow entry point. A
// query rejected by a data owner whose snapshot advanced past the
// query's timestamp (Definition 2) is terminated and resubmitted with a
// fresh timestamp, up to a bounded number of attempts.
func (p *Peer) Query(sql, user string, strategy Strategy, opts engine.Options) (*engine.QueryResult, error) {
	stmt, err := sqldb.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	strategyName := string(strategy)
	if strategyName == "" {
		strategyName = string(StrategyBasic)
	}
	root := telemetry.StartTrace("query",
		telemetry.L("peer", p.id), telemetry.L("strategy", strategyName))
	defer root.End()
	if c := queryCounters[strategyName]; c != nil {
		c.Inc()
	} else {
		telemetry.Default.Counter("peer_queries_total", telemetry.L("strategy", strategyName)).Inc()
	}
	start := time.Now()
	const maxAttempts = 3
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		sp := root
		if attempt > 0 {
			// Resubmissions (Definition 2) get their own span so retried
			// rounds don't interleave with the first attempt's.
			sp = root.StartChild(fmt.Sprintf("attempt-%d", attempt+1))
		}
		res, err := p.execute(stmt, user, strategy, opts, sp)
		if sp != root {
			sp.SetError(err)
			sp.End()
		}
		if err == nil {
			res.Resubmissions = attempt
			res.Trace = root.Trace()
			root.SetVTime(res.Cost.Total())
			root.SetAttr("engine", res.Engine)
			root.End() // close before capture so the slowlog tree has no open spans
			out := &queryOutcome{
				engine:        res.Engine,
				vtime:         res.Cost.Total(),
				peers:         len(res.Peers),
				resubmissions: attempt,
				rowsScanned:   res.RowsScanned,
				bytesFetched:  res.BytesFetched,
			}
			p.recordQuery(sql, user, time.Since(start), out, nil, root)
			return res, nil
		}
		if !errors.Is(err, engine.ErrSnapshotNewer) {
			root.SetError(err)
			root.End()
			p.recordQuery(sql, user, time.Since(start), nil, err, root)
			return nil, err
		}
		resubmissions.Inc()
		lastErr = err
	}
	root.SetError(lastErr)
	err = fmt.Errorf("peer %s: query kept racing loader refreshes after %d attempts: %w", p.id, maxAttempts, lastErr)
	root.End()
	p.recordQuery(sql, user, time.Since(start), nil, err, root)
	return nil, err
}

func (p *Peer) execute(stmt *sqldb.SelectStmt, user string, strategy Strategy, opts engine.Options, sp *telemetry.Span) (*engine.QueryResult, error) {
	switch strategy {
	case StrategyBasic, "":
		e := &engine.Basic{B: p, Opts: opts, User: user, Span: sp}
		return e.Execute(stmt)
	case StrategyParallel:
		e := &engine.Parallel{B: p, Opts: opts, User: user, Span: sp}
		return e.Execute(stmt)
	case StrategyMR:
		e := &engine.MapReduce{B: p, Opts: opts, User: user, Span: sp}
		return e.Execute(stmt)
	case StrategyAdaptive:
		e := engine.NewAdaptive(p, opts, user)
		e.Selectivity = p.StatsSelectivity
		e.Span = sp
		return e.Execute(stmt)
	default:
		return nil, fmt.Errorf("peer: unknown strategy %q", strategy)
	}
}

// --- engine.Backend implementation ---

// Self implements engine.Backend.
func (p *Peer) Self() string { return p.id }

// Schema implements engine.Backend.
func (p *Peer) Schema(table string) *sqldb.Schema { return p.GlobalSchema(table) }

// Locate implements engine.Backend using the published indexes with the
// paper's priority (range > column > table). When a table has no
// published index entries at all — the partial indexing scheme of the
// BestPeer lineage ([26], just-in-time query retrieval over partially
// indexed data) lets peers skip indexing cold tables to bound index
// size — the locator falls back to probing every current participant
// directly.
func (p *Peer) Locate(table string, conjuncts []sqldb.Expr, columns []string) (indexer.Location, error) {
	loc, err := p.lc.Locate(table, conjuncts, columns)
	if err != nil {
		return loc, err
	}
	if loc.Kind != indexer.KindNone {
		return loc, nil
	}
	if p.GlobalSchema(table) == nil {
		return loc, nil // not a global table: nothing to probe for
	}
	return p.probeParticipants(table)
}

// probeParticipants asks every online participant whether it holds the
// table (the unindexed fallback), probing all of them concurrently.
// The result is not cached: partial indexing trades lookup traffic for
// index size. A participant whose probe fails — crashed between the
// bootstrap's online check and the call, say, or unreachable over TCP,
// or timed out (pnet.Unavailable covers all of these, in-process and
// remote alike) — is skipped so one down peer cannot abort the whole
// locate; the probe only errors when no participant answered at all,
// and it prefers reporting a real handler failure over a mere
// unreachability when both occurred.
func (p *Peer) probeParticipants(table string) (indexer.Location, error) {
	loc := indexer.Location{Kind: indexer.KindNone}
	var ids []string
	for _, id := range p.env.Bootstrap.Peers() {
		if id == "" || !p.env.Bootstrap.Online(id) {
			continue
		}
		ids = append(ids, id)
	}
	type probe struct {
		entry indexer.TableEntry
		err   error
	}
	// The per-probe error travels in the slot so the fan-out drains every
	// probe instead of failing the round.
	probes, _ := engine.FanOut(len(ids), func(i int) (probe, error) {
		reply, err := p.ep.Call(ids[i], MsgHasTable, table, int64(len(table)))
		if err != nil {
			return probe{err: err}, nil
		}
		return probe{entry: reply.Payload.(indexer.TableEntry)}, nil
	})
	var firstErr error
	answered := 0
	for i, pr := range probes {
		if pr.err != nil {
			// A handler that ran and failed outranks an unreachable
			// peer in the error we surface: the former is a bug signal,
			// the latter is the failure mode this probe exists to
			// degrade past.
			if firstErr == nil || (pnet.Unavailable(firstErr) && !pnet.Unavailable(pr.err)) {
				firstErr = pr.err
			}
			continue
		}
		answered++
		if pr.entry.Rows == 0 && pr.entry.Bytes == 0 {
			continue
		}
		loc.Peers = append(loc.Peers, ids[i])
		loc.Entries = append(loc.Entries, pr.entry)
	}
	if answered == 0 && firstErr != nil {
		return loc, fmt.Errorf("peer %s: probing participants for %s: %w", p.id, table, firstErr)
	}
	if len(loc.Peers) > 0 {
		loc.Kind = indexer.KindTable
		loc.Hops = len(loc.Peers) // one probe message per participant
	}
	return loc, nil
}

// Gate implements engine.Backend: the strong-consistency gate (§3.2).
func (p *Peer) Gate(peers []string) error {
	if !p.env.Bootstrap.Online(peers...) {
		return fmt.Errorf("peer: data scope offline, query blocked until fail-over completes")
	}
	return nil
}

// SubQuery implements engine.Backend: ship a subquery to a data owner
// peer over the message substrate.
func (p *Peer) SubQuery(peerID string, req engine.SubQueryRequest) (*sqldb.Result, error) {
	size := req.StmtBytes
	if size == 0 {
		size = engine.SubQueryBytes(req.Stmt)
	}
	if req.Bloom != nil {
		size += req.Bloom.SizeBytes()
	}
	reply, err := p.ep.CallTraced(req.Trace, peerID, MsgSubQuery, req, size)
	if err != nil {
		return nil, err
	}
	return reply.Payload.(*sqldb.Result), nil
}

// JoinAt implements engine.Backend: dispatch a replicated-join task to
// a processing node.
func (p *Peer) JoinAt(peerID string, task engine.JoinTask) (*sqldb.Result, error) {
	size := int64(64) + task.ShippedBytes
	if task.ShippedBytes == 0 {
		for _, r := range task.Shipped {
			size += int64(r.EncodedSize())
		}
	}
	reply, err := p.ep.CallTraced(task.Local.Trace, peerID, MsgJoinTask, task, size)
	if err != nil {
		return nil, err
	}
	return reply.Payload.(*sqldb.Result), nil
}

// MR implements engine.Backend.
func (p *Peer) MR() *mapreduce.Cluster { return p.env.MR }

// QueryTimestamp implements engine.Backend: new queries are stamped
// with the network's current logical time.
func (p *Peer) QueryTimestamp() uint64 {
	if p.env.Clock == nil {
		return 0
	}
	return p.env.Clock.Now()
}

// Rates implements engine.Backend.
func (p *Peer) Rates() vtime.Rates { return p.env.Rates }

// --- data-owner side ---

// handleSubQuery serves a data retrieval request: the statement is
// checked and rewritten under the requesting user's access role (§4.4),
// executed against the local database, bloom-filtered when the request
// carries a filter, and the (masked) rows are pushed back.
func (p *Peer) handleSubQuery(msg pnet.Message) (pnet.Message, error) {
	req := msg.Payload.(engine.SubQueryRequest)
	sp := telemetry.StartSpan(msg.Trace, "exec-subquery", telemetry.L("peer", p.id))
	defer sp.End()
	if err := p.checkSnapshot(req.Timestamp); err != nil {
		sp.SetError(err)
		return pnet.Message{}, err
	}
	role, err := p.roleFor(req.User)
	if err != nil {
		sp.SetError(err)
		return pnet.Message{}, err
	}
	if role != nil {
		if err := p.checkAccess(role, req.Stmt); err != nil {
			sp.SetError(err)
			return pnet.Message{}, err
		}
	}
	res, err := p.db.ExecStmt(req.Stmt)
	if err != nil {
		sp.SetError(err)
		return pnet.Message{}, err
	}
	engine.ApplyBloomToResult(res, req.BloomColumn, req.Bloom)
	if role != nil && len(req.Stmt.From) == 1 {
		accesscontrol.MaskRows(role, req.Stmt.From[0].Table, res.Columns, res.Rows)
	}
	sp.SetAttr("rows", fmt.Sprintf("%d", len(res.Rows)))
	sp.SetAttr("bytes", fmt.Sprintf("%d", res.Stats.BytesReturned))
	sp.SetVTime(p.env.Rates.DiskRead(res.Stats.BytesScanned).Add(p.env.Rates.CPUWork(res.Stats.BytesScanned)).Total())
	return pnet.Message{Payload: res, Size: res.Stats.BytesReturned}, nil
}

// handleJoinTask serves a processing-node task of the parallel engine.
func (p *Peer) handleJoinTask(msg pnet.Message) (pnet.Message, error) {
	task := msg.Payload.(engine.JoinTask)
	sp := telemetry.StartSpan(msg.Trace, "exec-jointask", telemetry.L("peer", p.id))
	defer sp.End()
	if err := p.checkSnapshot(task.Local.Timestamp); err != nil {
		sp.SetError(err)
		return pnet.Message{}, err
	}
	role, err := p.roleFor(task.Local.User)
	if err != nil {
		sp.SetError(err)
		return pnet.Message{}, err
	}
	if role != nil {
		if err := p.checkAccess(role, task.Local.Stmt); err != nil {
			sp.SetError(err)
			return pnet.Message{}, err
		}
	}
	local, err := p.db.ExecStmt(task.Local.Stmt)
	if err != nil {
		sp.SetError(err)
		return pnet.Message{}, err
	}
	if role != nil && len(task.Local.Stmt.From) == 1 {
		accesscontrol.MaskRows(role, task.Local.Stmt.From[0].Table, local.Columns, local.Rows)
	}
	res, err := engine.ExecuteJoinTask(task, local.Rows)
	if err != nil {
		sp.SetError(err)
		return pnet.Message{}, err
	}
	res.Stats.BytesScanned = local.Stats.BytesScanned
	res.Stats.RowsScanned = local.Stats.RowsScanned
	for _, r := range res.Rows {
		res.Stats.BytesReturned += int64(r.EncodedSize())
	}
	sp.SetAttr("rows", fmt.Sprintf("%d", len(res.Rows)))
	sp.SetAttr("bytes", fmt.Sprintf("%d", res.Stats.BytesReturned))
	sp.SetVTime(p.env.Rates.DiskRead(res.Stats.BytesScanned).Add(p.env.Rates.CPUWork(res.Stats.BytesScanned + task.ShippedBytes)).Total())
	return pnet.Message{Payload: res, Size: res.Stats.BytesReturned}, nil
}

// checkSnapshot enforces Definition 2: a data owner whose snapshot is
// newer than the query's timestamp cannot answer for the snapshot the
// query names and rejects, making the processor resubmit.
func (p *Peer) checkSnapshot(queryTS uint64) error {
	if queryTS == 0 {
		return nil
	}
	if ts := p.snapshotTS.Load(); ts > queryTS {
		return fmt.Errorf("%w (peer %s snapshot %d > query %d)", engine.ErrSnapshotNewer, p.id, ts, queryTS)
	}
	return nil
}

// roleFor resolves the requesting user's role. The empty user is the
// benchmark full-access account (nil role = no enforcement), matching
// the §6.1.4 configuration where a single role with full access to all
// tables is assigned to the benchmark user.
func (p *Peer) roleFor(user string) (*accesscontrol.Role, error) {
	if user == "" {
		return nil, nil
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	role := p.acl.RoleOf(user)
	if role == nil {
		return nil, fmt.Errorf("peer %s: unknown user %q", p.id, user)
	}
	return role, nil
}

// checkAccess verifies a statement only references columns the role may
// read in positions that cannot be masked afterwards: predicates and
// grouping (information leaks) and non-trivial select expressions
// (aggregates over hidden data cannot be NULLed per cell).
func (p *Peer) checkAccess(role *accesscontrol.Role, stmt *sqldb.SelectStmt) error {
	for _, ref := range stmt.From {
		single := &sqldb.SelectStmt{
			From:    []sqldb.TableRef{ref},
			Where:   stmt.Where,
			GroupBy: stmt.GroupBy,
		}
		// CheckSelect only inspects columns resolvable against the one
		// table; qualified references to other tables pass through.
		if err := accesscontrol.CheckSelect(role, ref.Table, filterStmtFor(single, ref)); err != nil {
			return err
		}
	}
	for _, item := range stmt.Items {
		if item.Star {
			continue // plain projection: masked after execution
		}
		if _, plain := item.Expr.(*sqldb.ColumnRef); plain {
			continue
		}
		for _, cr := range sqldb.ColumnsIn(item.Expr) {
			table := tableOfRef(stmt, cr)
			if table == "" {
				continue
			}
			priv, rng := role.Access(table, cr.Column)
			if !priv.Has(accesscontrol.PrivRead) || rng != nil {
				return fmt.Errorf("peer %s: role %s may not compute over %s.%s", p.id, role.Name, table, cr.Column)
			}
		}
	}
	return nil
}

// filterStmtFor narrows a statement's predicates to those resolvable
// against one FROM entry, so access checks do not trip over other
// tables' columns.
func filterStmtFor(stmt *sqldb.SelectStmt, ref sqldb.TableRef) *sqldb.SelectStmt {
	out := &sqldb.SelectStmt{From: []sqldb.TableRef{ref}}
	for _, c := range sqldb.Conjuncts(stmt.Where) {
		all := true
		for _, cr := range sqldb.ColumnsIn(c) {
			if cr.Table != "" && !equalFold(cr.Table, ref.Alias) {
				all = false
				break
			}
		}
		if all {
			out.Where = sqldb.AndAll([]sqldb.Expr{out.Where, c})
		}
	}
	for _, g := range stmt.GroupBy {
		all := true
		for _, cr := range sqldb.ColumnsIn(g) {
			if cr.Table != "" && !equalFold(cr.Table, ref.Alias) {
				all = false
				break
			}
		}
		if all {
			out.GroupBy = append(out.GroupBy, g)
		}
	}
	return out
}

// tableOfRef resolves which FROM table a column reference belongs to.
func tableOfRef(stmt *sqldb.SelectStmt, cr *sqldb.ColumnRef) string {
	if cr.Table == "" {
		if len(stmt.From) == 1 {
			return stmt.From[0].Table
		}
		return ""
	}
	for _, ref := range stmt.From {
		if equalFold(ref.Alias, cr.Table) {
			return ref.Table
		}
	}
	return ""
}

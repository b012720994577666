package engine

import (
	"errors"
	"fmt"
	"sort"

	"bestpeer/internal/indexer"
	"bestpeer/internal/mapreduce"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/sqlval"
	"bestpeer/internal/telemetry"
	"bestpeer/internal/vtime"
)

// ErrSnapshotNewer is the Definition 2 rejection: the data owner's
// database snapshot is newer than the query's timestamp, so it cannot
// answer for the snapshot the query names; the query processor must
// terminate and resubmit the query with a fresh timestamp.
var ErrSnapshotNewer = errors.New("engine: peer snapshot newer than query timestamp; resubmit")

// SubQueryRequest is a single-table data retrieval pushed to a data
// owner peer. The receiving peer executes it against its local database
// under the requesting user's access role.
type SubQueryRequest struct {
	Stmt *sqldb.SelectStmt
	// User identifies the submitting user for access-control rewriting
	// at the data owner ("" = benchmark full-access user).
	User string
	// Timestamp is the query's logical submission time (Definition 2).
	// Zero disables the snapshot check (local tooling).
	Timestamp uint64
	// Bloom, when set with BloomColumn, makes the data owner drop rows
	// whose BloomColumn value cannot match the filter before returning
	// (bloom join, §5.2).
	BloomColumn string
	Bloom       *Bloom
	// Trace is the calling round's span context; the backend attaches
	// it to the pnet message so the data owner's execution nests under
	// the caller's trace. Zero means "untraced".
	Trace telemetry.SpanContext
	// StmtBytes is the request's modeled wire size (see SubQueryBytes),
	// computed once where the request is built so a fan-out round does
	// not re-render the WHERE clause for every target peer. Zero means
	// "unknown; the backend measures it per call".
	StmtBytes int64
}

// SubQueryBytes models the wire size of a subquery request: a fixed
// statement envelope plus the rendered WHERE clause. Engines stamp it
// into SubQueryRequest.StmtBytes once per round; the formula must stay
// identical to the backend's fallback so virtual-time costs do not
// depend on which side measured.
func SubQueryBytes(stmt *sqldb.SelectStmt) int64 {
	size := int64(64)
	if stmt.Where != nil {
		size += int64(len(stmt.Where.String()))
	}
	return size
}

// JoinTask asks a data peer to act as a processing node of the parallel
// P2P engine (§5.3, Fig. 4): it fetches its local partition with Local,
// joins it with the replicated Shipped rows on the given keys, applies
// Residual conditions over the combined layout, and — when Partial is
// set — pre-aggregates the joined rows before returning them.
type JoinTask struct {
	Local SubQueryRequest
	// Shipped is the replicated intermediate result; its layout is
	// ShippedBindings. Combined rows are shipped columns followed by
	// local columns.
	Shipped         []sqlval.Row
	ShippedBindings []sqldb.Binding
	// ShippedBytes is the encoded size of Shipped, computed once per
	// join level at the sender so per-node dispatch and cost accounting
	// need not re-encode the replicated rows for every processing node.
	// Zero means "unknown; measure locally".
	ShippedBytes int64
	// LocalBinding describes the local partition's columns in the
	// combined layout.
	LocalBinding sqldb.Binding
	// ShippedKeys/LocalKeys are the equi-join key expressions over the
	// shipped and local layouts respectively.
	ShippedKeys []sqldb.Expr
	LocalKeys   []sqldb.Expr
	// Residual conditions are evaluated over the combined layout.
	Residual []sqldb.Expr
	// Partial, when non-nil, aggregates the combined rows at the
	// processing node (distributed partial aggregation).
	Partial *sqldb.SelectStmt
}

// Backend is the surface the engines program against; the peer package
// implements it over pnet, local databases, access control, and the
// BATON-based locator.
type Backend interface {
	// Self is the query submitting peer's ID.
	Self() string
	// Schema resolves a global table's schema.
	Schema(table string) *sqldb.Schema
	// Locate resolves the data owner peers for one table access.
	Locate(table string, conjuncts []sqldb.Expr, columns []string) (indexer.Location, error)
	// Gate enforces strong consistency: it fails (or blocks until
	// recovery) when any peer's data scope is offline (§3.2).
	Gate(peers []string) error
	// SubQuery executes a single-table subquery at a data owner peer.
	SubQuery(peer string, req SubQueryRequest) (*sqldb.Result, error)
	// JoinAt executes a replicated-join task at a processing node.
	JoinAt(peer string, task JoinTask) (*sqldb.Result, error)
	// MR returns the MapReduce cluster, or nil when not mounted.
	MR() *mapreduce.Cluster
	// QueryTimestamp returns the logical time to stamp a new query with
	// (Definition 2); zero disables snapshot checking.
	QueryTimestamp() uint64
	// Rates returns the virtual-time cost rates.
	Rates() vtime.Rates
}

// QueryResult is a completed distributed query.
type QueryResult struct {
	Result *sqldb.Result
	// Engine names the strategy that ran: "basic", "parallel",
	// "mapreduce", or "single-peer".
	Engine string
	// Cost is the query's virtual-time latency.
	Cost vtime.Cost
	// Peers lists the data peers contacted.
	Peers []string
	// SubQueries counts remote data retrievals.
	SubQueries int
	// BytesFetched is the volume shipped to the submitting peer.
	BytesFetched int64
	// BytesScanned is the remote disk volume read.
	BytesScanned int64
	// RowsScanned is the total rows read from peer databases while
	// answering this query (summed across subqueries and join tasks).
	// The monitoring plane reports it per peer as a load signal.
	RowsScanned int64
	// IndexKind reports which index type located the data owners.
	IndexKind indexer.IndexKind
	// Resubmissions counts Definition 2 retries before this result.
	Resubmissions int
	// PayGoUnits is the pay-as-you-go charge for this query under Eq. 1,
	// C = (α+β)·N + γ·t, applied to the measured quantities: disk bytes
	// scanned, bytes shipped, and processing seconds (§5: "BestPeer++
	// charges the user for data retrieval, network bandwidth usages and
	// query processing").
	PayGoUnits float64
	// Trace is the query's collected span tree (nil when tracing was
	// off or the engine was driven without a root span).
	Trace *telemetry.Trace
}

// chargePayGo computes and stores the query's Eq. 1 charge.
func (qr *QueryResult) chargePayGo(p CostParams) {
	qr.PayGoUnits = p.Alpha*float64(qr.BytesScanned) +
		p.BetaBP*float64(qr.BytesFetched) +
		p.Gamma*qr.Cost.CPU.Seconds()
}

// Options tune the engines; the zero value disables nothing (defaults
// on). The ablation benchmarks flip individual flags.
type Options struct {
	// DisableBloomJoin turns off the bloom-join optimization.
	DisableBloomJoin bool
	// DisableSinglePeer turns off the single-peer optimization
	// (§6.2.3).
	DisableSinglePeer bool
	// PushIntermediateTransfer models the paper's pull-vs-push ablation:
	// false (default) keeps BestPeer++'s push transfers; true adds the
	// MapReduce-style pull delay to every fetch round.
	SimulatePullTransfer bool
}

// tableAccess is one FROM entry's resolved access plan.
type tableAccess struct {
	ref       sqldb.TableRef
	schema    *sqldb.Schema
	columns   []string
	subSchema *sqldb.Schema
	conjuncts []sqldb.Expr
	loc       indexer.Location
}

// resolveAccess locates data owners and builds push-down plans for every
// FROM entry. The per-table Locate calls — index lookups that may fall
// back to probing every participant — fan out concurrently. The round
// is traced as one "resolve" span under parent.
func resolveAccess(b Backend, stmt *sqldb.SelectStmt, parent *telemetry.Span) ([]*tableAccess, []sqldb.Expr, error) {
	sp := parent.StartChild("resolve", telemetry.L("tables", fmt.Sprintf("%d", len(stmt.From))))
	defer sp.End()
	schemas := make([]*sqldb.Schema, len(stmt.From))
	for i, ref := range stmt.From {
		s := b.Schema(ref.Table)
		if s == nil {
			err := &UnknownTableError{Table: ref.Table}
			sp.SetError(err)
			return nil, nil, err
		}
		schemas[i] = s
	}
	perTable, cross := sqldb.SplitConjunctsPerTable(stmt.Where, stmt.From, schemas)
	out, err := FanOut(len(stmt.From), func(i int) (*tableAccess, error) {
		ref := stmt.From[i]
		cols := sqldb.NeededColumns(stmt, ref, schemas[i])
		sub, err := sqldb.SubSchema(schemas[i], cols)
		if err != nil {
			return nil, err
		}
		loc, err := b.Locate(ref.Table, perTable[i], cols)
		if err != nil {
			return nil, err
		}
		return &tableAccess{
			ref:       ref,
			schema:    schemas[i],
			columns:   cols,
			subSchema: sub,
			conjuncts: perTable[i],
			loc:       loc,
		}, nil
	})
	if err != nil {
		sp.SetError(err)
		return nil, nil, err
	}
	return out, cross, nil
}

// UnknownTableError reports a FROM table absent from the global schema.
type UnknownTableError struct{ Table string }

func (e *UnknownTableError) Error() string {
	return "engine: unknown global table " + e.Table
}

// allPeers unions the access plans' peer lists, sorted.
func allPeers(accesses []*tableAccess) []string {
	set := make(map[string]bool)
	for _, a := range accesses {
		for _, p := range a.loc.Peers {
			set[p] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// singleCommonPeer reports whether one peer hosts every involved table
// (the single-peer optimization's trigger).
func singleCommonPeer(accesses []*tableAccess) (string, bool) {
	peers := allPeers(accesses)
	if len(peers) != 1 {
		return "", false
	}
	for _, a := range accesses {
		if len(a.loc.Peers) != 1 {
			return "", false
		}
	}
	return peers[0], true
}

package peer

import (
	"sync"
	"time"

	"bestpeer/internal/pnet"
	"bestpeer/internal/telemetry"
)

// Per-peer telemetry: each peer owns a private registry holding only the
// series the monitoring plane scores — query latency, error and
// resubmission counts, rows scanned, shuffle volume, and per-destination
// RPC outcomes. Peer registries are disjoint, so the bootstrap's
// collector can merge every report into one cluster registry under a
// peer=<id> label without double counting (the process-wide Default
// registry stays what it was: this process's /metrics view).

func init() {
	// The report types cross pnet's TCP transport; telemetry itself sits
	// below pnet, so the producing package registers them.
	pnet.RegisterPayload(telemetry.Report{}, SlowQueryEntry{}, []SlowQueryEntry{})
}

// peerMetrics caches the peer registry's hot-path handles.
type peerMetrics struct {
	reg         *telemetry.Registry
	queries     *telemetry.Counter
	queryErrors *telemetry.Counter
	latency     *telemetry.Histogram
	rowsScanned *telemetry.Counter
	shuffle     *telemetry.Counter

	dest sync.Map // destination id -> *destCounters
}

// destCounters is one destination's sender-side RPC accounting. The
// sender's view is the authoritative one for health scoring: a crashed
// peer cannot report its own failures, but every peer that tried to
// reach it can.
type destCounters struct {
	calls  *telemetry.Counter
	errors *telemetry.Counter
}

func newPeerMetrics() *peerMetrics {
	reg := telemetry.NewRegistry()
	m := &peerMetrics{
		reg:         reg,
		queries:     reg.Counter("peer_queries_total"),
		queryErrors: reg.Counter("peer_query_errors_total"),
		latency:     reg.Histogram("peer_query_seconds", nil),
		rowsScanned: reg.Counter("peer_rows_scanned_total"),
		shuffle:     reg.Counter("peer_shuffle_bytes_total"),
	}
	reg.SetHelp("peer_queries_total", "Queries this peer coordinated.")
	reg.SetHelp("peer_query_errors_total", "Coordinated queries that returned an error.")
	reg.SetHelp("peer_query_seconds", "Wall-clock latency of coordinated queries.")
	reg.SetHelp("peer_rows_scanned_total", "Rows scanned across all peers on this peer's behalf.")
	reg.SetHelp("peer_shuffle_bytes_total", "Bytes shipped between peers for this peer's queries.")
	reg.SetHelp("peer_rpc_calls_total", "Sender-side RPC attempts by destination.")
	reg.SetHelp("peer_rpc_errors_total", "Sender-side RPC failures by destination.")
	return m
}

func (m *peerMetrics) destOf(to string) *destCounters {
	if v, ok := m.dest.Load(to); ok {
		return v.(*destCounters)
	}
	d := &destCounters{
		calls:  m.reg.Counter("peer_rpc_calls_total", telemetry.L("to", to)),
		errors: m.reg.Counter("peer_rpc_errors_total", telemetry.L("to", to)),
	}
	actual, _ := m.dest.LoadOrStore(to, d)
	return actual.(*destCounters)
}

// initTelemetry wires the peer's private registry, the slow-query log,
// and the endpoint call observer. Join and Recover both call it.
func (p *Peer) initTelemetry() {
	p.pm = newPeerMetrics()
	p.slow = newSlowLog(DefaultSlowQueryThreshold)
	p.ep.SetCallObserver(func(to, _ string, _ time.Duration, err error) {
		d := p.pm.destOf(to)
		d.calls.Inc()
		if err != nil {
			d.errors.Inc()
		}
	})
}

// Metrics returns the peer's private telemetry registry (the one the
// reporter ships to the bootstrap).
func (p *Peer) Metrics() *telemetry.Registry {
	if p.pm == nil {
		return nil
	}
	return p.pm.reg
}

// recordQuery feeds one finished Query into the peer registry and the
// slow-query log. res is nil when the query failed.
func (p *Peer) recordQuery(sql, user string, wall time.Duration, res *queryOutcome, err error, root *telemetry.Span) {
	if p.pm != nil {
		p.pm.queries.Inc()
		// Tail-bucket observations keep the trace ID as an exemplar, so a
		// p99 overrun on the dashboard links to a replayable trace.
		p.pm.latency.ObserveExemplar(wall.Seconds(), root.Context().TraceID)
		if err != nil {
			p.pm.queryErrors.Inc()
		}
		if res != nil {
			p.pm.rowsScanned.Add(res.rowsScanned)
			p.pm.shuffle.Add(res.bytesFetched)
		}
	}
	p.slow.maybeCapture(p.id, sql, user, wall, res, err, root)
}

// queryOutcome is the slice of a QueryResult the recorder needs (kept
// small so error paths can pass nil without building a result).
type queryOutcome struct {
	engine        string
	vtime         time.Duration
	peers         int
	resubmissions int
	rowsScanned   int64
	bytesFetched  int64
}

package peer

import (
	"strings"
	"testing"
	"time"

	"bestpeer/internal/engine"
)

// TestSlowLogCapturesAndServes pins the slow-query log: a query over
// the threshold lands in the ring with its rendered trace and no open
// spans, and another peer can fetch the log over the verb surface.
func TestSlowLogCapturesAndServes(t *testing.T) {
	env := testEnv(t)
	peers := joinLoaded(t, env, 2, 0.002)
	peers[0].SetSlowQueryThreshold(time.Nanosecond)
	if _, err := peers[0].Query(`SELECT COUNT(*) FROM orders`, "", StrategyBasic, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	entries := peers[0].SlowQueries()
	if len(entries) != 1 {
		t.Fatalf("slowlog entries = %d, want 1", len(entries))
	}
	e := entries[0]
	if e.SQL != `SELECT COUNT(*) FROM orders` || e.Peer != peers[0].ID() {
		t.Errorf("entry = %+v", e)
	}
	if e.Engine == "" || e.Wall <= 0 {
		t.Errorf("entry missing outcome: engine=%q wall=%v", e.Engine, e.Wall)
	}
	if !strings.Contains(e.Trace, "query") || !strings.Contains(e.Trace, "exec-subquery") {
		t.Errorf("captured trace incomplete:\n%s", e.Trace)
	}
	if len(e.OpenSpans) != 0 {
		t.Errorf("span leak on success path: %v", e.OpenSpans)
	}

	// Under the default 250ms threshold nothing this small is captured.
	peers[1].SetSlowQueryThreshold(DefaultSlowQueryThreshold)
	if _, err := peers[1].Query(`SELECT COUNT(*) FROM orders`, "", StrategyBasic, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := peers[1].SlowQueries(); len(got) != 0 {
		t.Errorf("fast query captured: %d entries", len(got))
	}

	// Remote retrieval over peer.slowlog.
	fetched, err := peers[1].FetchSlowLog(peers[0].ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(fetched) != 1 || fetched[0].SQL != e.SQL {
		t.Errorf("fetched = %+v", fetched)
	}
}

// TestSlowQueryLinksTraceToTailExemplar pins the link between the two
// latency views: a slow query's log entry carries the trace ID that the
// latency histogram's tail exemplar holds, so a p99 overrun on the
// dashboard finds its replayable trace in the slow log.
func TestSlowQueryLinksTraceToTailExemplar(t *testing.T) {
	env := testEnv(t)
	peers := joinLoaded(t, env, 2, 0.002)
	p := peers[0]
	p.SetSlowQueryThreshold(time.Nanosecond) // capture everything

	sql := `SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= DATE '1993-01-01' AND l_shipdate < DATE '1993-03-01'`
	if _, err := p.Query(sql, "", StrategyBasic, engine.Options{}); err != nil {
		t.Fatal(err)
	}

	entries := p.SlowQueries()
	if len(entries) == 0 {
		t.Fatal("no slow-query entries captured")
	}
	e := entries[len(entries)-1]
	if e.TraceID == 0 {
		t.Fatal("slow-query entry has no trace ID")
	}
	ex, ok := p.Metrics().Histogram("peer_query_seconds", nil).TailExemplar()
	if !ok {
		t.Fatal("latency histogram has no exemplar")
	}
	if ex.TraceID != e.TraceID {
		t.Errorf("tail exemplar trace %016x != slow-log trace %016x", ex.TraceID, e.TraceID)
	}
}

// TestNoSpanLeakThroughOutage is the regression test for span handling
// on RPC error paths: a query whose data scope goes dark mid-plan must
// fail cleanly AND leave no span open in its trace.
func TestNoSpanLeakThroughOutage(t *testing.T) {
	env := testEnv(t)
	peers := joinLoaded(t, env, 3, 0.002)
	peers[0].SetSlowQueryThreshold(time.Nanosecond)

	// The bootstrap still lists peer-02 online (no fail-over has run), so
	// the consistency gate passes and the remote call itself fails.
	env.Net.SetDown("peer-02", true)
	defer env.Net.SetDown("peer-02", false)

	if _, err := peers[0].Query(`SELECT COUNT(*) FROM lineitem`, "", StrategyBasic, engine.Options{}); err == nil {
		t.Fatal("query through outage succeeded")
	}
	entries := peers[0].SlowQueries()
	if len(entries) != 1 {
		t.Fatalf("failed query not captured: %d entries", len(entries))
	}
	e := entries[0]
	if e.Err == "" {
		t.Error("captured entry has no error")
	}
	if len(e.OpenSpans) != 0 {
		t.Errorf("spans leaked through the outage: %v\ntrace:\n%s", e.OpenSpans, e.Trace)
	}
}

// TestReporterDeltaFlow drives the reporter → collector pipeline over
// the real verb: deltas accumulate at the bootstrap, a failed push's
// activity is carried by the next report instead of being lost, and the
// sender-side RPC counters land in other peers' reports.
func TestReporterDeltaFlow(t *testing.T) {
	env := testEnv(t)
	peers := joinLoaded(t, env, 2, 0.002)

	if _, err := peers[0].Query(`SELECT COUNT(*) FROM orders`, "", StrategyBasic, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if err := p.ReportTelemetry(); err != nil {
			t.Fatal(err)
		}
	}
	c := env.Bootstrap.Collector()
	h, ok := c.Health(peers[0].ID())
	if !ok {
		t.Fatal("no health after first report")
	}
	if h.Reports != 1 || h.RowsScanned == 0 {
		t.Errorf("health = %+v", h)
	}

	// Bootstrap goes dark: the push fails, but the baseline must not
	// advance — the next successful report carries the missed activity.
	env.Net.SetDown("bootstrap", true)
	if _, err := peers[0].Query(`SELECT COUNT(*) FROM orders`, "", StrategyBasic, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := peers[0].ReportTelemetry(); err == nil {
		t.Fatal("report to downed bootstrap succeeded")
	}
	env.Net.SetDown("bootstrap", false)
	if err := peers[0].ReportTelemetry(); err != nil {
		t.Fatal(err)
	}

	text := c.ClusterText()
	if !strings.Contains(text, `peer_queries_total{peer="peer-00"} 2`) {
		t.Errorf("delta lost across failed push:\n%s", text)
	}
	// The distributed COUNT fanned out to peer-01, so peer-00's report
	// carries sender-side RPC observations about it.
	h1, ok := c.Health(peers[1].ID())
	if !ok {
		t.Fatal("no health for peer-01")
	}
	if h1.RPCCalls == 0 {
		t.Error("no sender-side RPC observations about peer-01")
	}
	if h1.RPCFailureRate != 0 || h1.Score != 1 {
		t.Errorf("healthy peer penalized: %+v", h1)
	}
}

// TestReporterLoop exercises the background loop end-to-end.
func TestReporterLoop(t *testing.T) {
	env := testEnv(t)
	peers := joinLoaded(t, env, 1, 0.002)
	stop := peers[0].StartTelemetryReporter(2 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if h, ok := env.Bootstrap.Collector().Health(peers[0].ID()); ok && h.Reports >= 2 {
			stop()
			stop() // idempotent
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("reporter loop produced no reports")
}

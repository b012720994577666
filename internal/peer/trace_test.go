package peer

import (
	"strings"
	"testing"

	"bestpeer/internal/engine"
	"bestpeer/internal/telemetry"
)

// TestQueryTracePropagation pins the cross-peer trace chain: a query
// submitted at one peer produces a single trace whose remote execution
// spans (opened at the data owners) nest under the submitting peer's
// root span via the rpc hops.
func TestQueryTracePropagation(t *testing.T) {
	env := testEnv(t)
	peers := joinLoaded(t, env, 2, 0.002)
	res, err := peers[0].Query(`SELECT COUNT(*) FROM orders`, "", StrategyBasic, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("query result carries no trace")
	}
	spans := res.Trace.Spans()
	byID := make(map[uint64]telemetry.SpanInfo, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	root := spans[0]
	if root.Name != "query" {
		t.Fatalf("first span = %q, want query root", root.Name)
	}

	// Every remote execution span must chain up to the root through an
	// rpc span, proving the context crossed the message substrate.
	var remote int
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "exec-") {
			continue
		}
		remote++
		parent, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("remote span %q has non-resident parent %d", s.Name, s.Parent)
		}
		if !strings.HasPrefix(parent.Name, "rpc:") {
			t.Errorf("remote span %q parent = %q, want an rpc span", s.Name, parent.Name)
		}
		// Walk to the root.
		cur := parent
		for cur.Parent != 0 {
			cur = byID[cur.Parent]
		}
		if cur.ID != root.ID {
			t.Errorf("remote span %q does not chain to the query root", s.Name)
		}
	}
	// COUNT(*) over one table at two data owners: the partial-agg round
	// fans out to both peers, so both remote executions must appear.
	if remote < 2 {
		t.Errorf("trace has %d remote execution spans, want >= 2", remote)
	}

	out := FormatQueryTrace(res)
	for _, want := range []string{"query", "rpc:peer.subquery", "exec-subquery", "wall=", "vtime="} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered trace missing %q:\n%s", want, out)
		}
	}
}

// TestQueryTraceParallelStrategy covers the replicated-join path across
// four peers: join-level spans appear and jointask executions nest
// under the caller's trace.
func TestQueryTraceParallelStrategy(t *testing.T) {
	env := testEnv(t)
	peers := joinLoaded(t, env, 4, 0.002)
	res, err := peers[0].Query(
		`SELECT o_orderpriority, COUNT(*) FROM orders, lineitem WHERE l_orderkey = o_orderkey GROUP BY o_orderpriority`,
		"", StrategyParallel, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("query result carries no trace")
	}
	var joinLevel, jointask bool
	for _, s := range res.Trace.Spans() {
		if strings.HasPrefix(s.Name, "join-level-") {
			joinLevel = true
		}
		if s.Name == "exec-jointask" {
			jointask = true
		}
	}
	if !joinLevel {
		t.Error("trace has no join-level span")
	}
	if !jointask {
		t.Error("trace has no remote jointask execution span")
	}

	// The per-destination pnet counters saw this query's traffic.
	var counted int
	for _, p := range peers[1:] {
		if telemetry.Default.Counter("pnet_calls_total", telemetry.L("peer", p.ID())).Value() > 0 {
			counted++
		}
	}
	if counted == 0 {
		t.Error("no pnet per-destination counters recorded for data peers")
	}
}

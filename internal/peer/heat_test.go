package peer

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"bestpeer/internal/baton"
	"bestpeer/internal/bootstrap"
	"bestpeer/internal/cloud"
	"bestpeer/internal/engine"
	"bestpeer/internal/pnet"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/telemetry"
	"bestpeer/internal/tpch"
	"bestpeer/internal/vtime"
)

func TestStmtKeyRangeMapsShipdateWindow(t *testing.T) {
	env := testEnv(t)
	peers := joinLoaded(t, env, 1, 0.002)
	shipdateDomain(env)
	p := peers[0]

	stmt, err := sqldb.ParseSelect(
		`SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= DATE '1992-01-01' AND l_shipdate < DATE '1992-02-01'`)
	if err != nil {
		t.Fatal(err)
	}
	tables, lo, hi, ok := p.stmtKeyRange(stmt)
	if !ok {
		t.Fatal("stmtKeyRange found no bounded domain column")
	}
	if len(tables) != 1 || tables[0] != tpch.LineItem {
		t.Errorf("tables = %v", tables)
	}
	if lo != 0 {
		t.Errorf("lo = %v, want 0 (domain start)", lo)
	}
	// One month out of ~7 years sits near the start of the key space.
	if hi <= lo || hi > 0.05 {
		t.Errorf("hi = %v, want a small key just past lo", hi)
	}

	// Half-bounded predicate: the unbounded side clamps to the domain edge.
	stmt2, err := sqldb.ParseSelect(`SELECT COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1998-09-01'`)
	if err != nil {
		t.Fatal(err)
	}
	_, lo2, hi2, ok2 := p.stmtKeyRange(stmt2)
	if !ok2 {
		t.Fatal("half-bounded predicate not mapped")
	}
	if hi2 != 1 || lo2 < 0.9 {
		t.Errorf("half-bounded range = [%v,%v], want [~0.96,1]", lo2, hi2)
	}

	// No predicate on the domain column: nothing to attribute.
	stmt3, err := sqldb.ParseSelect(`SELECT COUNT(*) FROM lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok3 := p.stmtKeyRange(stmt3); ok3 {
		t.Error("unbounded statement mapped to a key range")
	}
}

// TestSlowQueryLinksTraceToHotRange is the end-to-end link the heat
// plane promises: a slow query's log entry carries the trace ID that
// the latency histogram's tail exemplar holds, plus the table and key
// range that heated — so a p99 overrun is attributable to a replayable
// trace over a named range.
func TestSlowQueryLinksTraceToHotRange(t *testing.T) {
	env := testEnv(t)
	peers := joinLoaded(t, env, 2, 0.002)
	shipdateDomain(env)
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
	if !e.HasKeyRange {
		t.Fatal("slow-query entry has no key-range attribution")
	}
	if len(e.Tables) == 0 || e.Tables[0] != tpch.LineItem {
		t.Errorf("entry tables = %v", e.Tables)
	}
	if e.KeyLo < 0 || e.KeyHi <= e.KeyLo || e.KeyHi > 1 {
		t.Errorf("entry key range = [%v,%v]", e.KeyLo, e.KeyHi)
	}

	// The latency histogram's tail exemplar carries the same trace ID.
	ex, ok := p.Metrics().Histogram("peer_query_seconds", nil).TailExemplar()
	if !ok {
		t.Fatal("latency histogram has no exemplar")
	}
	if ex.TraceID != e.TraceID {
		t.Errorf("tail exemplar trace %016x != slow-log trace %016x", ex.TraceID, e.TraceID)
	}

	// And the data owner heated the same region of the key space.
	var heat telemetry.HeatmapSnapshot
	for _, pp := range peers {
		heat = heat.Add(pp.Metrics().Heatmap("peer_key_heat", telemetry.DefaultHeatBuckets).Snapshot())
	}
	if heat.Count() == 0 {
		t.Fatal("no heat recorded by data owners")
	}
	bucket, _ := heat.Top()
	blo, bhi := telemetry.HeatBucketRange(bucket, telemetry.DefaultHeatBuckets)
	if e.KeyHi < blo || e.KeyLo >= bhi {
		t.Errorf("hot bucket [%v,%v) does not overlap entry range [%v,%v]", blo, bhi, e.KeyLo, e.KeyHi)
	}
}

// TestReporterShipsAccessAndHeat pins the report side-channels: the
// sqldb per-table access totals ride as peer_table_access_total deltas
// (baseline advancing only on delivered pushes), and the peer_key_heat
// vector lands in the collector's cluster heat.
func TestReporterShipsAccessAndHeat(t *testing.T) {
	env := testEnv(t)
	peers := joinLoaded(t, env, 2, 0.002)
	shipdateDomain(env)

	sql := `SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= DATE '1993-01-01' AND l_shipdate < DATE '1993-03-01'`
	if _, err := peers[0].Query(sql, "", StrategyBasic, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if err := p.ReportTelemetry(); err != nil {
			t.Fatal(err)
		}
	}
	c := env.Bootstrap.Collector()

	accessTotal := func() float64 {
		var total float64
		for _, line := range strings.Split(c.ClusterText(), "\n") {
			if strings.HasPrefix(line, "peer_table_access_total") && strings.Contains(line, `table="lineitem"`) {
				v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
				if err != nil {
					t.Fatalf("parse %q: %v", line, err)
				}
				total += v
			}
		}
		return total
	}
	v1 := accessTotal()
	if v1 == 0 {
		t.Fatalf("no lineitem access counters in cluster registry:\n%s", c.ClusterText())
	}
	if c.ClusterHeat().Count() == 0 {
		t.Fatal("no heat in cluster after reports")
	}

	// A failed push must not advance the access baseline: the next
	// delivered report carries the missed accesses.
	env.Net.SetDown("bootstrap", true)
	if _, err := peers[0].Query(sql, "", StrategyBasic, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if err := p.ReportTelemetry(); err == nil {
			t.Fatal("report to downed bootstrap succeeded")
		}
	}
	env.Net.SetDown("bootstrap", false)
	for _, p := range peers {
		if err := p.ReportTelemetry(); err != nil {
			t.Fatal(err)
		}
	}
	if v2 := accessTotal(); v2 <= v1 {
		t.Fatalf("access totals lost across failed push: %v -> %v", v1, v2)
	}
}

func BenchmarkRecordStmtHeat(b *testing.B) {
	net := pnet.NewNetwork()
	bs, err := bootstrap.New(net, "bootstrap", cloud.NewSimProvider())
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range tpch.Schemas(false) {
		bs.DefineGlobalSchema(s)
	}
	env := Env{
		Net: net, Bootstrap: bs,
		Overlay:  baton.NewOverlay(net, "bootstrap/overlay"),
		Provider: cloud.NewSimProvider(),
		Rates:    vtime.DefaultRates(),
		Clock:    &pnet.LogicalClock{},
	}
	p, err := Join("peer-00", env)
	if err != nil {
		b.Fatal(err)
	}
	shipdateDomain(env)
	stmt, err := sqldb.ParseSelect(
		`SELECT COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1998-09-01' AND l_commitdate < DATE '1998-10-01'`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.recordStmtHeat(stmt)
	}
}

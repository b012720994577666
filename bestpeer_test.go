package bestpeer

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"bestpeer/internal/accesscontrol"
	"bestpeer/internal/engine"
	"bestpeer/internal/erp"
	"bestpeer/internal/mapreduce"
	"bestpeer/internal/peer"
	"bestpeer/internal/pnet"
	"bestpeer/internal/schemamap"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/sqlval"
	"bestpeer/internal/telemetry"
	"bestpeer/internal/tpch"
)

// newLoadedNetwork builds a network with TPC-H data and range indexes
// on l_shipdate (the paper's loading configuration).
func newLoadedNetwork(t *testing.T, peers int, sf float64) *Network {
	t.Helper()
	n, err := NewNetwork(Config{
		NumPeers:          peers,
		RangeIndexColumns: map[string][]string{tpch.LineItem: {"l_shipdate"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.LoadTPCH(sf); err != nil {
		t.Fatal(err)
	}
	return n
}

// oracleFor merges every peer's data into one local database.
func oracleFor(t *testing.T, peers int, sf float64) *sqldb.DB {
	t.Helper()
	db := sqldb.NewDB()
	for i := 0; i < peers; i++ {
		sc := tpch.Scale{ScaleFactor: sf, Peer: i, NumPeers: peers, NationKey: -1}
		if err := tpch.Generate(db, sc); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func canonicalRows(rows []sqlval.Row) []string {
	out := make([]string, 0, len(rows))
	for _, row := range rows {
		var sb strings.Builder
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('|')
			}
			if v.Numeric() || v.Kind() == sqlval.KindDate {
				fmt.Fprintf(&sb, "%.4f", v.AsFloat())
			} else {
				sb.WriteString(v.String())
			}
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

func TestEndToEndAllStrategiesMatchOracle(t *testing.T) {
	const peers = 4
	const sf = 0.003
	n := newLoadedNetwork(t, peers, sf)
	oracle := oracleFor(t, peers, sf)
	// retriesAndTimeouts sums the transport's retry and timeout counters
	// over every destination.
	retriesAndTimeouts := func() (retries, timeouts float64) {
		for _, p := range telemetry.Default.Export().Points {
			switch p.Name {
			case "pnet_retries_total":
				retries += p.Value
			case "pnet_timeouts_total":
				timeouts += p.Value
			}
		}
		return retries, timeouts
	}
	retries0, timeouts0 := retriesAndTimeouts()

	queries := map[string]string{
		"Q1": tpch.Q1Default(),
		"Q2": tpch.Q2Default(),
		"Q3": tpch.Q3Default(),
		"Q4": tpch.Q4Default(),
		"Q5": tpch.Q5(),
	}
	strategies := []peer.Strategy{peer.StrategyBasic, peer.StrategyParallel, peer.StrategyMR, peer.StrategyAdaptive}
	for name, sql := range queries {
		want, err := oracle.Query(sql)
		if err != nil {
			t.Fatalf("%s oracle: %v", name, err)
		}
		wantC := canonicalRows(want.Rows)
		for _, s := range strategies {
			res, err := n.Query(0, sql, QueryOptions{Strategy: s})
			if err != nil {
				t.Fatalf("%s via %s: %v", name, s, err)
			}
			gotC := canonicalRows(res.Result.Rows)
			if len(gotC) != len(wantC) {
				t.Fatalf("%s via %s: %d rows, want %d", name, s, len(gotC), len(wantC))
			}
			for i := range gotC {
				if gotC[i] != wantC[i] {
					t.Fatalf("%s via %s row %d:\n got  %s\n want %s", name, s, i, gotC[i], wantC[i])
				}
			}
		}
	}
	if stats := n.Net.Stats(); stats.Messages == 0 || stats.BytesSent == 0 {
		t.Error("no network traffic recorded for distributed queries")
	}
	// A healthy network never exercises the hardened RPC path's recovery.
	if retries, timeouts := retriesAndTimeouts(); retries != retries0 || timeouts != timeouts0 {
		t.Errorf("healthy network: %v retries and %v timeouts, want 0 and 0", retries-retries0, timeouts-timeouts0)
	}
}

func TestRangeIndexRestrictsPeers(t *testing.T) {
	n := newLoadedNetwork(t, 4, 0.003)
	// Peers hold disjoint key ranges but overlapping shipdates, so a
	// broad date predicate touches all; assert the locator used the
	// range index kind.
	res, err := n.Query(0, tpch.Q1Default(), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.IndexKind != "range" {
		t.Errorf("index kind = %s, want range", res.IndexKind)
	}
}

func TestFailoverRestoresQueryability(t *testing.T) {
	n := newLoadedNetwork(t, 4, 0.002)
	before, err := n.Query(0, `SELECT COUNT(*) FROM lineitem`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	victim := n.Peer(2).ID()
	if err := n.CrashPeer(victim); err != nil {
		t.Fatal(err)
	}
	// With the peer down, queries over its scope fail fast (remote call
	// errors) — strong consistency admits no partial answers.
	if _, err := n.Query(0, `SELECT COUNT(*) FROM lineitem`, QueryOptions{}); err == nil {
		t.Fatal("query succeeded against crashed peer's scope")
	}

	if err := n.RunMaintenance(time.Minute); err != nil {
		t.Fatal(err)
	}
	after, err := n.Query(0, `SELECT COUNT(*) FROM lineitem`, QueryOptions{})
	if err != nil {
		t.Fatalf("query after fail-over: %v", err)
	}
	if before.Result.Rows[0][0].AsInt() != after.Result.Rows[0][0].AsInt() {
		t.Errorf("row count changed across fail-over: %v -> %v",
			before.Result.Rows[0][0], after.Result.Rows[0][0])
	}
	if n.PeerByID(victim) != nil {
		t.Error("failed peer still resolvable")
	}
	found := false
	for _, id := range n.Bootstrap.Peers() {
		if strings.HasPrefix(id, victim+"-r") {
			found = true
		}
	}
	if !found {
		t.Errorf("no replacement peer in %v", n.Bootstrap.Peers())
	}
}

func TestAccessControlEndToEnd(t *testing.T) {
	n := newLoadedNetwork(t, 2, 0.002)
	// Define a restricted role network-wide and create a user.
	role := accesscontrol.NewRole("analyst",
		accesscontrol.Rule{Table: tpch.LineItem, Column: "l_quantity", Priv: accesscontrol.PrivRead},
		accesscontrol.Rule{Table: tpch.LineItem, Column: "l_extendedprice", Priv: accesscontrol.PrivRead,
			Range: &accesscontrol.ValueRange{Lo: sqlval.Float(0), Hi: sqlval.Float(2000)}},
	)
	n.Bootstrap.Roles().DefineRole(role)
	for _, p := range n.Peers() {
		p.ACL().DefineRole(role)
	}
	if err := n.Bootstrap.CreateUser("alice", "analyst"); err != nil {
		t.Fatal(err)
	}

	// Readable column with range restriction: out-of-range values masked.
	res, err := n.Query(0, `SELECT l_quantity, l_extendedprice FROM lineitem`, QueryOptions{User: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	maskedSome := false
	for _, row := range res.Result.Rows {
		if row[0].IsNull() {
			t.Fatal("fully readable column masked")
		}
		if row[1].IsNull() {
			maskedSome = true
		} else if row[1].AsFloat() > 2000 {
			t.Fatalf("out-of-range value leaked: %v", row[1])
		}
	}
	if !maskedSome {
		t.Error("no values masked despite range restriction")
	}

	// Filtering on an unreadable column is rejected at the data owner.
	if _, err := n.Query(0, `SELECT l_quantity FROM lineitem WHERE l_discount > 0`, QueryOptions{User: "alice"}); err == nil {
		t.Error("filter on unreadable column accepted")
	}
	// Aggregating a range-restricted column is rejected (cannot mask).
	if _, err := n.Query(0, `SELECT SUM(l_extendedprice) FROM lineitem`, QueryOptions{User: "alice"}); err == nil {
		t.Error("aggregate over range-restricted column accepted")
	}
	// Unknown users are rejected.
	if _, err := n.Query(0, `SELECT l_quantity FROM lineitem`, QueryOptions{User: "mallory"}); err == nil {
		t.Error("unknown user accepted")
	}
}

func TestProductionLoaderThroughPeer(t *testing.T) {
	n, err := NewNetwork(Config{NumPeers: 2, GlobalSchema: []*sqldb.Schema{{
		Table: "orders",
		Columns: []sqldb.Column{
			{Name: "o_orderkey", Kind: sqlval.KindInt},
			{Name: "o_totalprice", Kind: sqlval.KindFloat},
		},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	sys := erp.NewSystem("SAP")
	local := &sqldb.Schema{Table: "vbak", Columns: []sqldb.Column{
		{Name: "price", Kind: sqlval.KindFloat},
		{Name: "id", Kind: sqlval.KindInt},
	}}
	if err := sys.CreateTable(local); err != nil {
		t.Fatal(err)
	}
	mapping := &schemamap.Mapping{System: "SAP", Tables: []schemamap.TableMapping{{
		LocalTable: "vbak", GlobalTable: "orders",
		Columns: []schemamap.ColumnMapping{
			{Local: "id", Global: "o_orderkey"},
			{Local: "price", Global: "o_totalprice"},
		},
	}}}
	p := n.Peer(0)
	if err := p.AttachProduction(sys, mapping); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := sys.Insert("vbak", sqlval.Row{sqlval.Float(float64(i) * 10), sqlval.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := p.SyncData()
	if err != nil {
		t.Fatal(err)
	}
	if d.Inserted != 10 {
		t.Fatalf("delta = %+v", d)
	}
	if err := p.PublishIndexes(nil); err != nil {
		t.Fatal(err)
	}
	// The data is now visible network-wide from the other peer.
	res, err := n.Query(1, `SELECT COUNT(*), SUM(o_totalprice) FROM orders`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Rows[0][0].AsInt() != 10 || res.Result.Rows[0][1].AsFloat() != 450 {
		t.Errorf("result = %v", res.Result.Rows[0])
	}
	// Business mutates; refresh propagates the delta.
	if _, err := sys.Exec(`DELETE FROM vbak WHERE id < 5`); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SyncData(); err != nil {
		t.Fatal(err)
	}
	res, err = n.Query(1, `SELECT COUNT(*) FROM orders`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Rows[0][0].AsInt() != 5 {
		t.Errorf("count after refresh = %v", res.Result.Rows[0][0])
	}
}

func TestGracefulLeave(t *testing.T) {
	n := newLoadedNetwork(t, 3, 0.002)
	victim := n.Peer(2)
	all, err := n.Query(0, `SELECT COUNT(*) FROM orders`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	victimCount, err := victim.DB().Query(`SELECT COUNT(*) FROM orders`)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Leave(); err != nil {
		t.Fatal(err)
	}
	n.Peer(0).Locator().Invalidate()
	after, err := n.Query(0, `SELECT COUNT(*) FROM orders`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := all.Result.Rows[0][0].AsInt() - victimCount.Rows[0][0].AsInt()
	if after.Result.Rows[0][0].AsInt() != want {
		t.Errorf("count after leave = %v, want %d", after.Result.Rows[0][0], want)
	}
	if len(n.Bootstrap.Peers()) != 2 {
		t.Errorf("bootstrap peers = %v", n.Bootstrap.Peers())
	}
}

func TestSinglePeerOptimizationViaFacade(t *testing.T) {
	// Nation-partitioned supplier/retailer network: each query touches
	// exactly one peer and short-circuits.
	n, err := NewNetwork(Config{
		NumPeers:          2,
		GlobalSchema:      tpch.Schemas(true),
		RangeIndexColumns: map[string][]string{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range n.Peers() {
		sc := tpch.Scale{ScaleFactor: 0.01, Peer: i, NumPeers: 2, NationKey: i, Tables: tpch.SupplierTables()}
		if err := tpch.Generate(p.DB(), sc); err != nil {
			t.Fatal(err)
		}
		if err := p.PublishIndexes(map[string][]string{
			tpch.Supplier: {"s_nationkey"},
			tpch.PartSupp: {"ps_nationkey"},
			tpch.Part:     {"p_nationkey"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := n.Query(0, tpch.SupplierQuery(1), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "single-peer" {
		t.Errorf("engine = %s, want single-peer", res.Engine)
	}
	if len(res.Peers) != 1 || res.Peers[0] != n.Peer(1).ID() {
		t.Errorf("peers = %v", res.Peers)
	}
	// With the optimization disabled, the same query runs the full path.
	res2, err := n.Query(0, tpch.SupplierQuery(1), QueryOptions{
		Engine: engine.Options{DisableSinglePeer: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Engine != "basic" {
		t.Errorf("engine = %s", res2.Engine)
	}
	if len(canonicalRows(res.Result.Rows)) != len(canonicalRows(res2.Result.Rows)) {
		t.Error("optimization changed the result")
	}
}

func TestPayAsYouGoBilling(t *testing.T) {
	n := newLoadedNetwork(t, 2, 0.002)
	if n.Provider.TotalBillUSD() != 0 {
		t.Error("bill nonzero before any clock advance")
	}
	if err := n.RunMaintenance(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	bill := n.Provider.TotalBillUSD()
	if bill <= 0 {
		t.Error("no pay-as-you-go charges accrued")
	}
}

func TestExportAndMapReduceOver(t *testing.T) {
	n := newLoadedNetwork(t, 3, 0.003)
	exp, err := n.ExportTable(tpch.Orders, "")
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := n.Query(0, `SELECT COUNT(*) FROM orders`, QueryOptions{})
	wantRows := oracle.Result.Rows[0][0].AsInt()
	if int64(exp.Rows) != wantRows {
		t.Fatalf("exported %d rows, want %d", exp.Rows, wantRows)
	}
	// The export is readable from the DFS.
	stored, err := n.FS.Read(exp.Path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(stored)) != wantRows {
		t.Errorf("DFS holds %d rows", len(stored))
	}
	// A raw MapReduce job over the export: count orders per priority.
	prioCol := -1
	for i, c := range exp.Columns {
		if c == "o_orderpriority" {
			prioCol = i
		}
	}
	if prioCol < 0 {
		t.Fatal("no o_orderpriority column in export")
	}
	job := mapreduce.Job{
		Name: "orders-by-priority",
		Map: func(_ string, row sqlval.Row) ([]mapreduce.KV, error) {
			return []mapreduce.KV{{Key: row[prioCol], Row: sqlval.Row{sqlval.Int(1)}}}, nil
		},
		Reduce: func(key sqlval.Value, rows []sqlval.Row) ([]sqlval.Row, error) {
			return []sqlval.Row{{key, sqlval.Int(int64(len(rows)))}}, nil
		},
		Output: "/export/orders-by-priority",
	}
	res, err := n.MapReduceOver(exp, job)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range res.Rows {
		total += r[1].AsInt()
	}
	if total != wantRows {
		t.Errorf("MR counted %d, want %d", total, wantRows)
	}
	sqlRes, _ := n.Query(0, `SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority`, QueryOptions{})
	if len(res.Rows) != len(sqlRes.Result.Rows) {
		t.Errorf("MR groups %d != SQL groups %d", len(res.Rows), len(sqlRes.Result.Rows))
	}
	// Guard rails.
	if _, err := n.ExportTable("ghost", ""); err == nil {
		t.Error("export of unknown table succeeded")
	}
	if _, err := n.MapReduceOver(&Export{}, mapreduce.Job{}); err == nil {
		t.Error("MR over empty export succeeded")
	}
}

func TestOnlineAggregationThroughFacade(t *testing.T) {
	n := newLoadedNetwork(t, 4, 0.004)
	var last float64
	var finals int
	err := n.Peer(0).QueryOnline(`SELECT SUM(l_quantity) FROM lineitem`, "", 3, func(e peer.OnlineEstimate) bool {
		last = e.Result.Rows[0][0].AsFloat()
		if e.Final {
			finals++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := n.Query(0, `SELECT SUM(l_quantity) FROM lineitem`, QueryOptions{})
	if finals != 1 || last != exact.Result.Rows[0][0].AsFloat() {
		t.Errorf("online final %v != exact %v (finals=%d)", last, exact.Result.Rows[0][0], finals)
	}
}

// TestRemoteSubQueryOverTCP ships a real subquery — AST, bloom filter,
// result rows — across an actual TCP connection between two pnet
// networks, the multi-host deployment path.
func TestRemoteSubQueryOverTCP(t *testing.T) {
	n := newLoadedNetwork(t, 2, 0.002)
	ln, err := n.Net.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	clientNet := pnet.NewNetwork()
	clientNet.AddRemotePeer(n.Peer(0).ID(), ln.Addr())
	client := clientNet.Join("remote-client")

	stmt, err := sqldb.ParseSelect(`SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 1000`)
	if err != nil {
		t.Fatal(err)
	}
	req := engine.SubQueryRequest{Stmt: stmt}
	reply, err := client.Call(n.Peer(0).ID(), peer.MsgSubQuery, req, 128)
	if err != nil {
		t.Fatal(err)
	}
	res := reply.Payload.(*sqldb.Result)
	want, err := n.Peer(0).DB().Query(`SELECT COUNT(*) FROM orders WHERE o_totalprice > 1000`)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Rows)) != want.Rows[0][0].AsInt() {
		t.Errorf("remote rows = %d, want %v", len(res.Rows), want.Rows[0][0])
	}
	for _, row := range res.Rows {
		if row[1].AsFloat() <= 1000 {
			t.Fatalf("predicate leaked across TCP: %v", row)
		}
	}

	// A bloom-filtered subquery crosses the wire too.
	bloom := engine.NewBloom(len(res.Rows))
	var keep []int64
	for i, row := range res.Rows {
		if i%2 == 0 {
			bloom.Add(row[0])
			keep = append(keep, row[0].AsInt())
		}
	}
	req2 := engine.SubQueryRequest{Stmt: stmt, BloomColumn: "o_orderkey", Bloom: bloom}
	reply2, err := client.Call(n.Peer(0).ID(), peer.MsgSubQuery, req2, 128)
	if err != nil {
		t.Fatal(err)
	}
	res2 := reply2.Payload.(*sqldb.Result)
	if len(res2.Rows) < len(keep) || len(res2.Rows) >= len(res.Rows) {
		t.Errorf("bloom over TCP returned %d rows (kept %d of %d)", len(res2.Rows), len(keep), len(res.Rows))
	}
}

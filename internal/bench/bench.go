// Package bench is the experiment harness regenerating the paper's
// evaluation (§6, Figs. 6–14): it builds matched BestPeer++ networks
// and HadoopDB clusters over identical TPC-H partitions, runs the
// benchmark queries, and reports the virtual-time latency and
// throughput series whose *shapes* the paper's figures show. The bench
// targets in the repository root and the cmd/bpbench tool both drive
// this package.
package bench

import (
	"fmt"
	"strings"
	"time"

	"bestpeer"
	"bestpeer/internal/engine"
	"bestpeer/internal/hadoopdb"
	"bestpeer/internal/peer"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/throughput"
	"bestpeer/internal/tpch"
	"bestpeer/internal/vtime"
)

// Config scales the experiments.
type Config struct {
	// Nodes lists the cluster sizes (the paper uses 10, 20, 50).
	Nodes []int
	// PerNodeSF is the TPC-H scale factor contributed by each node.
	PerNodeSF float64
	// TargetPerNodeBytes is the virtual data volume each node's real
	// partition represents (the paper distributes 1 GB per node). The
	// harness scales the cost model's byte rates so the toy partition
	// behaves like this volume, while fixed costs — MapReduce job
	// startup, pull delays, message latency — stay untouched. 0 keeps
	// the real partition size.
	TargetPerNodeBytes float64
	// Seed feeds the throughput simulator.
	Seed int64
}

// scaledRates derives the experiment's cost-model rates: byte rates are
// divided by (TargetPerNodeBytes / measured per-node bytes), so a query
// over the toy partition accrues the virtual time the paper-scale
// partition would.
func (cfg Config) scaledRates(nodes int) (vtime.Rates, error) {
	r := vtime.DefaultRates()
	if cfg.TargetPerNodeBytes <= 0 {
		return r, nil
	}
	probe := sqldb.NewDB()
	sc := tpch.Scale{ScaleFactor: cfg.PerNodeSF * float64(nodes), Peer: 0, NumPeers: nodes, NationKey: -1}
	if err := tpch.Generate(probe, sc); err != nil {
		return r, err
	}
	var perNode float64
	for _, name := range probe.TableNames() {
		perNode += float64(probe.Table(name).DataBytes())
	}
	if perNode <= 0 {
		return r, fmt.Errorf("bench: empty probe partition")
	}
	factor := cfg.TargetPerNodeBytes / perNode
	r.DiskBytesPerSec /= factor
	r.NetBytesPerSec /= factor
	r.CPUBytesPerSec /= factor
	return r, nil
}

// Table is one experiment's printable result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Format renders the table.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// buildBestPeer assembles a loaded BestPeer++ network of n nodes.
func buildBestPeer(cfg Config, n int) (*bestpeer.Network, error) {
	rates, err := cfg.scaledRates(n)
	if err != nil {
		return nil, err
	}
	net, err := bestpeer.NewNetwork(bestpeer.Config{
		NumPeers:          n,
		Rates:             rates,
		RangeIndexColumns: map[string][]string{tpch.LineItem: {"l_shipdate"}},
	})
	if err != nil {
		return nil, err
	}
	// Per-node scale: the generator divides by NumPeers.
	if err := net.LoadTPCH(cfg.PerNodeSF * float64(n)); err != nil {
		return nil, err
	}
	return net, nil
}

// buildHadoopDB assembles a loaded HadoopDB cluster of n workers.
func buildHadoopDB(cfg Config, n int) (*hadoopdb.Cluster, error) {
	rates, err := cfg.scaledRates(n)
	if err != nil {
		return nil, err
	}
	c, err := hadoopdb.New(n, rates)
	if err != nil {
		return nil, err
	}
	if err := c.LoadTPCH(cfg.PerNodeSF * float64(n)); err != nil {
		return nil, err
	}
	return c, nil
}

// Performance runs one benchmark query on both systems across cluster
// sizes (the harness behind Figs. 6–10). BestPeer++ uses the basic
// strategy, matching the benchmark configuration of §6.1.2.
func Performance(cfg Config, figure, queryName, sql string) (*Table, error) {
	t := &Table{
		ID:     figure,
		Title:  queryName + " latency, BestPeer++ (basic) vs HadoopDB",
		Header: []string{"nodes", "bestpeer_s", "hadoopdb_s", "ratio_hdb/bp"},
	}
	for _, n := range cfg.Nodes {
		bp, err := buildBestPeer(cfg, n)
		if err != nil {
			return nil, err
		}
		bpRes, err := bp.Query(0, sql, bestpeer.QueryOptions{Strategy: peer.StrategyBasic})
		if err != nil {
			return nil, fmt.Errorf("%s on BestPeer++ (%d nodes): %w", queryName, n, err)
		}
		hdb, err := buildHadoopDB(cfg, n)
		if err != nil {
			return nil, err
		}
		hdbRes, err := hdb.Query(sql)
		if err != nil {
			return nil, fmt.Errorf("%s on HadoopDB (%d nodes): %w", queryName, n, err)
		}
		if len(bpRes.Result.Rows) != len(hdbRes.Result.Rows) {
			return nil, fmt.Errorf("%s: systems disagree (%d vs %d rows)",
				queryName, len(bpRes.Result.Rows), len(hdbRes.Result.Rows))
		}
		ratio := float64(hdbRes.Cost.Total()) / float64(bpRes.Cost.Total())
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			secs(bpRes.Cost.Total()),
			secs(hdbRes.Cost.Total()),
			fmt.Sprintf("%.1fx", ratio),
		})
	}
	return t, nil
}

// Fig6 through Fig10 run the five performance benchmark queries.
func Fig6(cfg Config) (*Table, error) { return Performance(cfg, "Fig. 6", "Q1", tpch.Q1Default()) }

// Fig7 runs the Q2 aggregation benchmark.
func Fig7(cfg Config) (*Table, error) { return Performance(cfg, "Fig. 7", "Q2", tpch.Q2Default()) }

// Fig8 runs the Q3 two-table-join benchmark.
func Fig8(cfg Config) (*Table, error) { return Performance(cfg, "Fig. 8", "Q3", tpch.Q3Default()) }

// Fig9 runs the Q4 join+aggregation benchmark.
func Fig9(cfg Config) (*Table, error) { return Performance(cfg, "Fig. 9", "Q4", tpch.Q4Default()) }

// Fig10 runs the Q5 multi-join benchmark.
func Fig10(cfg Config) (*Table, error) { return Performance(cfg, "Fig. 10", "Q5", tpch.Q5()) }

// Fig11 evaluates Q5 under the P2P engine, the MapReduce engine, and
// the adaptive engine (§6.1.11): the adaptive engine must track the
// better of the two at every scale.
func Fig11(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Fig. 11",
		Title:  "Adaptive query processing on Q5",
		Header: []string{"nodes", "p2p_s", "mapreduce_s", "adaptive_s", "adaptive_choice"},
	}
	for _, n := range cfg.Nodes {
		net, err := buildBestPeer(cfg, n)
		if err != nil {
			return nil, err
		}
		sql := tpch.Q5()
		// The paper's "P2P engine" series is the original fetch-and-
		// process strategy (§6.1.10).
		p2p, err := net.Query(0, sql, bestpeer.QueryOptions{Strategy: peer.StrategyBasic})
		if err != nil {
			return nil, err
		}
		mr, err := net.Query(0, sql, bestpeer.QueryOptions{Strategy: peer.StrategyMR})
		if err != nil {
			return nil, err
		}
		ad, err := net.Query(0, sql, bestpeer.QueryOptions{Strategy: peer.StrategyAdaptive})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			secs(p2p.Cost.Total()),
			secs(mr.Cost.Total()),
			secs(ad.Cost.Total()),
			ad.Engine,
		})
	}
	return t, nil
}

// throughputConfigs measures per-role service times on a small
// nation-partitioned network and returns the serving-fleet configs for
// the throughput experiments.
func throughputConfigs(cfg Config, peers int) (supplier, retailer throughput.Config, err error) {
	// Each throughput query touches exactly one nation's data at one
	// peer. Calibrate the virtual volume of that per-nation partition to
	// ~15 MB, the working-set size implied by the paper's peak
	// throughputs (19,000 light and 3,400 heavy queries/sec over 25
	// peers with 20 threads each).
	const targetPerPeer = 15e6
	sSc := tpch.Scale{ScaleFactor: cfg.PerNodeSF * 25, Peer: 0, NumPeers: 2, NationKey: 0, Tables: tpch.SupplierTables()}
	rSc := tpch.Scale{ScaleFactor: cfg.PerNodeSF * 25, Peer: 1, NumPeers: 2, NationKey: 1, Tables: tpch.RetailerTables()}
	probe := sqldb.NewDB()
	if err := tpch.Generate(probe, rSc); err != nil {
		return supplier, retailer, err
	}
	var probeBytes float64
	for _, name := range probe.TableNames() {
		probeBytes += float64(probe.Table(name).DataBytes())
	}
	rates := vtime.DefaultRates()
	if probeBytes > 0 {
		factor := targetPerPeer / probeBytes
		rates.DiskBytesPerSec /= factor
		rates.NetBytesPerSec /= factor
		rates.CPUBytesPerSec /= factor
	}

	net, err := bestpeer.NewNetwork(bestpeer.Config{
		NumPeers:     2,
		Rates:        rates,
		GlobalSchema: tpch.Schemas(true),
	})
	if err != nil {
		return supplier, retailer, err
	}
	rangeIdx := map[string][]string{
		tpch.Supplier: {"s_nationkey"}, tpch.PartSupp: {"ps_nationkey"}, tpch.Part: {"p_nationkey"},
		tpch.Customer: {"c_nationkey"}, tpch.Orders: {"o_nationkey"}, tpch.LineItem: {"l_nationkey"},
	}
	// Peer 0 is a supplier for nation 0, peer 1 a retailer for nation 1.
	if err := tpch.Generate(net.Peer(0).DB(), sSc); err != nil {
		return supplier, retailer, err
	}
	if err := tpch.Generate(net.Peer(1).DB(), rSc); err != nil {
		return supplier, retailer, err
	}
	for _, p := range net.Peers() {
		if err := p.PublishIndexes(rangeIdx); err != nil {
			return supplier, retailer, err
		}
	}
	sRes, err := net.Query(1, tpch.SupplierQuery(0), bestpeer.QueryOptions{})
	if err != nil {
		return supplier, retailer, fmt.Errorf("supplier probe: %w", err)
	}
	rRes, err := net.Query(0, tpch.RetailerQuery(1), bestpeer.QueryOptions{})
	if err != nil {
		return supplier, retailer, fmt.Errorf("retailer probe: %w", err)
	}
	supplier = throughput.Config{Peers: peers, Threads: 20, ServiceTime: sRes.Cost.Total()}
	retailer = throughput.Config{Peers: peers, Threads: 20, ServiceTime: rRes.Cost.Total()}
	return supplier, retailer, nil
}

// Fig12 reports throughput scalability for both workload classes: half
// of each cluster's peers are suppliers, half retailers (§6.2.1).
func Fig12(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Fig. 12",
		Title:  "Throughput scalability (queries/sec)",
		Header: []string{"peers", "suppliers", "retailers", "supplier_qps", "retailer_qps"},
	}
	for _, n := range cfg.Nodes {
		half := n / 2
		if half < 1 {
			half = 1
		}
		sup, ret, err := throughputConfigs(cfg, half)
		if err != nil {
			return nil, err
		}
		supPt, err := throughput.ClosedLoop(sup, half*40, 2*time.Minute, cfg.Seed)
		if err != nil {
			return nil, err
		}
		retPt, err := throughput.ClosedLoop(ret, half*40, 2*time.Minute, cfg.Seed)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", half), fmt.Sprintf("%d", half),
			fmt.Sprintf("%.0f", supPt.AchievedQPS),
			fmt.Sprintf("%.0f", retPt.AchievedQPS),
		})
	}
	return t, nil
}

// latencyCurve renders a latency-vs-throughput curve (Figs. 13–14).
func latencyCurve(cfg Config, id, title string, role string) (*Table, error) {
	peers := 25 // the paper's 50-peer setup has 25 of each role
	sup, ret, err := throughputConfigs(cfg, peers)
	if err != nil {
		return nil, err
	}
	tc := sup
	if role == "retailer" {
		tc = ret
	}
	pts, err := throughput.Curve(tc, []float64{0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0, 1.1}, 2*time.Minute, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"offered_qps", "achieved_qps", "avg_latency_s", "p95_latency_s", "p99_latency_s"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", p.OfferedQPS),
			fmt.Sprintf("%.0f", p.AchievedQPS),
			fmt.Sprintf("%.3f", p.AvgLatency.Seconds()),
			fmt.Sprintf("%.3f", p.P95Latency.Seconds()),
			fmt.Sprintf("%.3f", p.P99Latency.Seconds()),
		})
	}
	return t, nil
}

// Fig13 is the supplier (light) latency-vs-throughput curve.
func Fig13(cfg Config) (*Table, error) {
	return latencyCurve(cfg, "Fig. 13", "Supplier workload: latency vs throughput (25 supplier peers)", "supplier")
}

// Fig14 is the retailer (heavy) latency-vs-throughput curve.
func Fig14(cfg Config) (*Table, error) {
	return latencyCurve(cfg, "Fig. 14", "Retailer workload: latency vs throughput (25 retailer peers)", "retailer")
}

// All runs every figure in order.
func All(cfg Config) ([]*Table, error) {
	runs := []func(Config) (*Table, error){
		Fig6, Fig7, Fig8, Fig9, Fig10, Fig11, Fig12, Fig13, Fig14,
	}
	var out []*Table
	for _, run := range runs {
		t, err := run(cfg)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Ablations runs the design-choice ablation experiments called out in
// DESIGN.md §4 on a single mid-size network.
func Ablations(cfg Config) (*Table, error) {
	n := 10
	if len(cfg.Nodes) > 0 {
		n = cfg.Nodes[0]
	}
	net, err := buildBestPeer(cfg, n)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Ablations",
		Title:  fmt.Sprintf("Design-choice ablations (%d nodes)", n),
		Header: []string{"ablation", "metric", "on", "off"},
	}

	// 1. Bloom join: bytes shipped for a selective join.
	joinSQL := `SELECT o.o_totalprice, l.l_extendedprice
FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
WHERE o.o_orderdate > DATE '1998-06-01'`
	withBloom, err := net.Query(0, joinSQL, bestpeer.QueryOptions{})
	if err != nil {
		return nil, err
	}
	noBloom, err := net.Query(0, joinSQL, bestpeer.QueryOptions{Engine: engine.Options{DisableBloomJoin: true}})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"bloom join", "bytes fetched",
		fmt.Sprintf("%d", withBloom.BytesFetched), fmt.Sprintf("%d", noBloom.BytesFetched)})

	// 2. Index cache: overlay hops per located query.
	lc := net.Peer(0).Locator()
	lc.Invalidate()
	first, err := net.Query(0, tpch.Q1Default(), bestpeer.QueryOptions{})
	if err != nil {
		return nil, err
	}
	_ = first
	cached, err := net.Query(0, tpch.Q1Default(), bestpeer.QueryOptions{})
	if err != nil {
		return nil, err
	}
	lc.SetCache(false)
	uncached, err := net.Query(0, tpch.Q1Default(), bestpeer.QueryOptions{})
	if err != nil {
		return nil, err
	}
	lc.SetCache(true)
	t.Rows = append(t.Rows, []string{"index cache", "virtual latency",
		secs(cached.Cost.Total()), secs(uncached.Cost.Total())})

	// 3. Push vs pull intermediate transfer (the paper's Q2 explanation).
	push, err := net.Query(0, tpch.Q2Default(), bestpeer.QueryOptions{})
	if err != nil {
		return nil, err
	}
	pull, err := net.Query(0, tpch.Q2Default(), bestpeer.QueryOptions{Engine: engine.Options{SimulatePullTransfer: true}})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"push transfer", "virtual latency",
		secs(push.Cost.Total()), secs(pull.Cost.Total())})

	return t, nil
}

package bestpeer_test

// The benchmark targets below regenerate every table and figure of the
// paper's evaluation (§6). Each target runs the corresponding
// experiment from internal/bench and reports the paper's metric —
// virtual-time latency in seconds, or queries/sec — as custom benchmark
// metrics, so `go test -bench=.` prints the series the figures plot.
// cmd/bpbench prints the same results as formatted tables.
//
// Benchmarks run at a reduced default scale (nodes 5/10/20) to stay
// CI-friendly; the virtual-time model makes the reported latencies
// independent of the real wall-clock, so the shapes match the full
// 10/20/50 runs of `bpbench`.

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"bestpeer"

	"bestpeer/internal/bench"
	"bestpeer/internal/engine"
	"bestpeer/internal/peer"
	"bestpeer/internal/tpch"
)

// benchConfig is the scale used by the checked-in benchmark targets.
func benchConfig() bench.Config {
	return bench.Config{Nodes: []int{5, 10, 20}, PerNodeSF: 0.0004, TargetPerNodeBytes: 1e9, Seed: 1}
}

// reportPerformance runs one Fig. 6-10 experiment and reports both
// systems' latencies per cluster size.
func reportPerformance(b *testing.B, run func(bench.Config) (*bench.Table, error)) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		for _, row := range t.Rows {
			nodes := row[0]
			bp, _ := strconv.ParseFloat(row[1], 64)
			hdb, _ := strconv.ParseFloat(row[2], 64)
			b.ReportMetric(bp, "bp_s/"+nodes+"n")
			b.ReportMetric(hdb, "hdb_s/"+nodes+"n")
		}
	}
}

// BenchmarkFig06Q1 regenerates Fig. 6: the Q1 selection benchmark.
func BenchmarkFig06Q1(b *testing.B) { reportPerformance(b, bench.Fig6) }

// BenchmarkFig07Q2 regenerates Fig. 7: the Q2 aggregation benchmark.
func BenchmarkFig07Q2(b *testing.B) { reportPerformance(b, bench.Fig7) }

// BenchmarkFig08Q3 regenerates Fig. 8: the Q3 two-table join benchmark.
func BenchmarkFig08Q3(b *testing.B) { reportPerformance(b, bench.Fig8) }

// BenchmarkFig09Q4 regenerates Fig. 9: the Q4 join+aggregation benchmark.
func BenchmarkFig09Q4(b *testing.B) { reportPerformance(b, bench.Fig9) }

// BenchmarkFig10Q5 regenerates Fig. 10: the Q5 multi-join benchmark.
func BenchmarkFig10Q5(b *testing.B) { reportPerformance(b, bench.Fig10) }

// BenchmarkFig11Adaptive regenerates Fig. 11: Q5 under the P2P engine,
// the MapReduce engine, and the adaptive engine.
func BenchmarkFig11Adaptive(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		for _, row := range t.Rows {
			nodes := row[0]
			p2p, _ := strconv.ParseFloat(row[1], 64)
			mr, _ := strconv.ParseFloat(row[2], 64)
			ad, _ := strconv.ParseFloat(row[3], 64)
			b.ReportMetric(p2p, "p2p_s/"+nodes+"n")
			b.ReportMetric(mr, "mr_s/"+nodes+"n")
			b.ReportMetric(ad, "adapt_s/"+nodes+"n")
		}
	}
}

// BenchmarkFig12Scalability regenerates Fig. 12: throughput vs peers.
func BenchmarkFig12Scalability(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		for _, row := range t.Rows {
			nodes := row[0]
			sup, _ := strconv.ParseFloat(row[3], 64)
			ret, _ := strconv.ParseFloat(row[4], 64)
			b.ReportMetric(sup, "sup_qps/"+nodes+"n")
			b.ReportMetric(ret, "ret_qps/"+nodes+"n")
		}
	}
}

// reportCurve runs a Fig. 13/14 latency-vs-throughput experiment and
// reports the peak achieved throughput and its latency.
func reportCurve(b *testing.B, run func(bench.Config) (*bench.Table, error)) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		var peakQPS, latAtPeak float64
		for _, row := range t.Rows {
			qps, _ := strconv.ParseFloat(row[1], 64)
			lat, _ := strconv.ParseFloat(row[2], 64)
			if qps > peakQPS {
				peakQPS, latAtPeak = qps, lat
			}
		}
		b.ReportMetric(peakQPS, "peak_qps")
		b.ReportMetric(latAtPeak, "latency_s@peak")
	}
}

// BenchmarkFig13Supplier regenerates Fig. 13: the light supplier
// workload's latency-vs-throughput curve.
func BenchmarkFig13Supplier(b *testing.B) { reportCurve(b, bench.Fig13) }

// BenchmarkFig14Retailer regenerates Fig. 14: the heavy retailer
// workload's latency-vs-throughput curve.
func BenchmarkFig14Retailer(b *testing.B) { reportCurve(b, bench.Fig14) }

// --- ablation benches (DESIGN.md §4) ---

// ablationNetwork builds one mid-size network for the ablations.
func ablationNetwork(b *testing.B) *bestpeer.Network {
	b.Helper()
	n, err := bestpeer.NewNetwork(bestpeer.Config{
		NumPeers:          8,
		RangeIndexColumns: map[string][]string{tpch.LineItem: {"l_shipdate"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := n.LoadTPCH(0.004); err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkAblationBloomJoin compares bytes shipped with and without
// the bloom-join optimization on a selective join.
func BenchmarkAblationBloomJoin(b *testing.B) {
	n := ablationNetwork(b)
	// Orders carry the selective predicate; LineItem is unfiltered, so
	// the bloom filter built from qualified order keys prunes the
	// LineItem transfer.
	sql := `SELECT o.o_totalprice, l.l_extendedprice
		FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
		WHERE o.o_orderdate > DATE '1998-06-01'`
	b.ResetTimer()
	var withB, withoutB int64
	for i := 0; i < b.N; i++ {
		on, err := n.Query(0, sql, bestpeer.QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		off, err := n.Query(0, sql, bestpeer.QueryOptions{Engine: engine.Options{DisableBloomJoin: true}})
		if err != nil {
			b.Fatal(err)
		}
		withB, withoutB = on.BytesFetched, off.BytesFetched
	}
	b.ReportMetric(float64(withB), "bytes_bloom_on")
	b.ReportMetric(float64(withoutB), "bytes_bloom_off")
}

// BenchmarkAblationSinglePeer compares the single-peer shortcut against
// the full fetch-and-process path on a nation-local query.
func BenchmarkAblationSinglePeer(b *testing.B) {
	n, err := bestpeer.NewNetwork(bestpeer.Config{NumPeers: 2, GlobalSchema: tpch.Schemas(true)})
	if err != nil {
		b.Fatal(err)
	}
	for i, p := range n.Peers() {
		sc := tpch.Scale{ScaleFactor: 0.01, Peer: i, NumPeers: 2, NationKey: i, Tables: tpch.SupplierTables()}
		if err := tpch.Generate(p.DB(), sc); err != nil {
			b.Fatal(err)
		}
		if err := p.PublishIndexes(map[string][]string{
			tpch.Supplier: {"s_nationkey"}, tpch.PartSupp: {"ps_nationkey"}, tpch.Part: {"p_nationkey"},
		}); err != nil {
			b.Fatal(err)
		}
	}
	sql := tpch.SupplierQuery(1)
	b.ResetTimer()
	var on, off time.Duration
	for i := 0; i < b.N; i++ {
		r1, err := n.Query(0, sql, bestpeer.QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := n.Query(0, sql, bestpeer.QueryOptions{Engine: engine.Options{DisableSinglePeer: true}})
		if err != nil {
			b.Fatal(err)
		}
		on, off = r1.Cost.Total(), r2.Cost.Total()
	}
	b.ReportMetric(on.Seconds(), "s_opt_on")
	b.ReportMetric(off.Seconds(), "s_opt_off")
}

// BenchmarkAblationIndexCache compares cached index lookups against
// per-query BATON traversal.
func BenchmarkAblationIndexCache(b *testing.B) {
	n := ablationNetwork(b)
	sql := tpch.Q1Default()
	lc := n.Peer(0).Locator()
	if _, err := n.Query(0, sql, bestpeer.QueryOptions{}); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ResetTimer()
	var cached, uncached time.Duration
	for i := 0; i < b.N; i++ {
		r1, err := n.Query(0, sql, bestpeer.QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		lc.SetCache(false)
		r2, err := n.Query(0, sql, bestpeer.QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		lc.SetCache(true)
		if _, err := n.Query(0, sql, bestpeer.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
		cached, uncached = r1.Cost.Total(), r2.Cost.Total()
	}
	b.ReportMetric(cached.Seconds()*1000, "ms_cached")
	b.ReportMetric(uncached.Seconds()*1000, "ms_uncached")
}

// BenchmarkAblationPushPull compares BestPeer++'s push-based
// intermediate transfer against a simulated pull-based transfer (the
// paper's explanation for the Q2 gap, §6.1.7).
func BenchmarkAblationPushPull(b *testing.B) {
	n := ablationNetwork(b)
	sql := tpch.Q2Default()
	b.ResetTimer()
	var push, pull time.Duration
	for i := 0; i < b.N; i++ {
		r1, err := n.Query(0, sql, bestpeer.QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := n.Query(0, sql, bestpeer.QueryOptions{Engine: engine.Options{SimulatePullTransfer: true}})
		if err != nil {
			b.Fatal(err)
		}
		push, pull = r1.Cost.Total(), r2.Cost.Total()
	}
	b.ReportMetric(push.Seconds(), "s_push")
	b.ReportMetric(pull.Seconds(), "s_pull")
}

// BenchmarkAblationIndexPriority measures how many peers each index
// kind contacts for a range-restricted query (range < column < table).
func BenchmarkAblationIndexPriority(b *testing.B) {
	n, err := bestpeer.NewNetwork(bestpeer.Config{
		NumPeers:          6,
		GlobalSchema:      tpch.Schemas(true),
		RangeIndexColumns: map[string][]string{},
	})
	if err != nil {
		b.Fatal(err)
	}
	// Nation-partitioned data: a nation-key predicate is selective
	// across peers only when the range index is published.
	for i, p := range n.Peers() {
		sc := tpch.Scale{ScaleFactor: 0.006, Peer: i, NumPeers: 6, NationKey: i, Tables: tpch.RetailerTables()}
		if err := tpch.Generate(p.DB(), sc); err != nil {
			b.Fatal(err)
		}
	}
	sql := fmt.Sprintf(`SELECT COUNT(*) FROM orders WHERE o_nationkey = %d`, 3)
	publish := func(rangeIdx bool) {
		cols := map[string][]string{}
		if rangeIdx {
			cols[tpch.Orders] = []string{"o_nationkey"}
		}
		for _, p := range n.Peers() {
			if err := p.PublishIndexes(cols); err != nil {
				b.Fatal(err)
			}
			p.Locator().Invalidate()
		}
	}
	b.ResetTimer()
	var withRange, withoutRange int
	for i := 0; i < b.N; i++ {
		publish(true)
		r1, err := n.Query(0, sql, bestpeer.QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		withRange = len(r1.Peers)
		publish(false)
		r2, err := n.Query(0, sql, bestpeer.QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		withoutRange = len(r2.Peers)
	}
	b.ReportMetric(float64(withRange), "peers_range_idx")
	b.ReportMetric(float64(withoutRange), "peers_column_idx")
}

// BenchmarkAblationFanout measures the parallel engine's replicated-join
// cost as the processing fan-out (peer count) grows.
func BenchmarkAblationFanout(b *testing.B) {
	for _, peers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			n, err := bestpeer.NewNetwork(bestpeer.Config{NumPeers: peers})
			if err != nil {
				b.Fatal(err)
			}
			if err := n.LoadTPCH(0.0005 * float64(peers)); err != nil {
				b.Fatal(err)
			}
			sql := tpch.Q4Default()
			b.ResetTimer()
			var cost time.Duration
			for i := 0; i < b.N; i++ {
				r, err := n.Query(0, sql, bestpeer.QueryOptions{Strategy: peer.StrategyParallel})
				if err != nil {
					b.Fatal(err)
				}
				cost = r.Cost.Total()
			}
			b.ReportMetric(cost.Seconds(), "s_parallel")
		})
	}
}

package bestpeer

import (
	"fmt"
	"testing"
	"time"

	"bestpeer/internal/bootstrap"
	"bestpeer/internal/peer"
	"bestpeer/internal/tpch"
)

// heatRun is one network's outcome under a shipdate-window workload.
type heatRun struct {
	rows         []string // one rendering per query of the fixed set
	rebalances   int      // Algorithm-1 "rebalance" events
	replicaReads int64    // index lookups served by replica holders
}

// runHeatWorkload loads a fresh 4-peer network with a stats domain on
// l_shipdate and drives it the way the heat loop sees production: 64
// warm-up queries (bootstrap.DefaultThresholds().MinHeatSamples, the
// collector's evidence floor), one report + maintenance epoch — where an
// armed daemon replicates a hot range — then a fixed query set drawn
// from the same distribution. skew > 1 places windows Zipf-style at the
// start of the date domain; 0 spreads them uniformly. flashCrowd turns
// the locator caches off so every index lookup walks the overlay and
// converges on one owner, the funnel mitigation exists to relieve.
func runHeatWorkload(t *testing.T, skew float64, flashCrowd, armed bool) heatRun {
	t.Helper()
	const peers = 4
	n := newLoadedNetwork(t, peers, 0.004)
	lo, hi := tpch.ShipdateDomain()
	n.Bootstrap.DefineStatsDomain(tpch.LineItem, bootstrap.StatsDomainRecord{
		Columns: []string{"l_shipdate"}, Lo: []float64{lo}, Hi: []float64{hi},
	})
	if armed {
		n.EnableHeatMitigation(2)
	}
	if flashCrowd {
		n.SetLocatorCache(false)
	}
	query := func(i int, sql string) string {
		res, err := n.Query(i%peers, sql, QueryOptions{Strategy: peer.StrategyBasic})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Result.Rows)
	}

	warm := tpch.NewShipdateWorkloadSkew(1, skew, 7)
	for q := 0; q < int(bootstrap.DefaultThresholds().MinHeatSamples); q++ {
		query(q, warm.Next())
	}
	n.ReportTelemetry()
	if err := n.RunMaintenance(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var out heatRun
	fixed := tpch.NewShipdateWorkloadSkew(99, skew, 7)
	for q := 0; q < 16; q++ {
		out.rows = append(out.rows, query(q, fixed.Next()))
	}
	for _, p := range n.Peers() {
		_, replica := p.ServeCounts()
		out.replicaReads += replica
	}
	for _, e := range n.Bootstrap.Events() {
		if e.Kind == "rebalance" {
			out.rebalances++
		}
	}
	return out
}

// TestHeatMitigationChangesNoAnswers pins the heat response's two
// correctness properties end to end. results_match: under a Zipf flash
// crowd, an armed network replicates the hot range and serves index
// reads from the replicas, yet returns exactly the rows an unarmed
// network returns for the same query set. armed_quiet: armed on a
// uniform workload with locator caches on (the production default), it
// logs no rebalance and serves no replica read.
func TestHeatMitigationChangesNoAnswers(t *testing.T) {
	plain := runHeatWorkload(t, tpch.DefaultZipfSkew, true, false)
	armed := runHeatWorkload(t, tpch.DefaultZipfSkew, true, true)
	t.Logf("flash crowd: unarmed %d rebalances / %d replica reads, armed %d / %d",
		plain.rebalances, plain.replicaReads, armed.rebalances, armed.replicaReads)
	if armed.rebalances == 0 || armed.replicaReads == 0 {
		t.Fatalf("flash crowd: armed network logged %d rebalances and %d replica reads, want both > 0",
			armed.rebalances, armed.replicaReads)
	}
	for q := range plain.rows {
		if plain.rows[q] != armed.rows[q] {
			t.Errorf("query %d: armed rows differ from unarmed\n armed   %s\n unarmed %s", q, armed.rows[q], plain.rows[q])
		}
	}

	quiet := runHeatWorkload(t, 0, false, true)
	if quiet.rebalances != 0 || quiet.replicaReads != 0 {
		t.Errorf("uniform workload: armed network logged %d rebalances and %d replica reads, want 0 and 0",
			quiet.rebalances, quiet.replicaReads)
	}
}

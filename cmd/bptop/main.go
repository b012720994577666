// Command bptop is a live cluster dashboard for a BestPeer++ network:
// top(1) for the monitoring plane. It launches an in-process network,
// loads TPC-H, drives a background query workload, and redraws the
// bootstrap collector's per-peer health table every refresh — health
// score, QPS, p99 query latency, error and RPC-failure rates, rows
// scanned, shuffle volume, fan-out queue wait, serving shed rate and
// last-report age.
//
// Usage:
//
//	bptop [-peers 8] [-sf 0.01] [-report 200ms] [-refresh 500ms]
//	      [-frames 0] [-crash 0] [-prom]
//
// With -crash D, one peer is crashed after D so the dashboard shows the
// monitoring plane reacting live: the victim's last-report age grows,
// other peers' sender-side RPC failures drag its health score down, and
// the next maintenance epoch fails it over (the event line names the
// signal that fired). -frames N renders N frames and exits, making the
// dashboard scriptable; -prom dumps the merged cluster-wide
// Prometheus-style exposition on exit.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"time"

	"bestpeer"
	"bestpeer/internal/bootstrap"
	"bestpeer/internal/peer"
	"bestpeer/internal/serving"
	"bestpeer/internal/telemetry"
	"bestpeer/internal/tpch"
)

func main() {
	peers := flag.Int("peers", 8, "number of normal peers")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor for the whole network")
	report := flag.Duration("report", 200*time.Millisecond, "telemetry report epoch")
	refresh := flag.Duration("refresh", 500*time.Millisecond, "dashboard refresh interval")
	frames := flag.Int("frames", 0, "render this many frames then exit (0 = until interrupted)")
	crash := flag.Duration("crash", 0, "crash one peer after this long (0 = never)")
	prom := flag.Bool("prom", false, "print the merged cluster exposition on exit")
	startPprof := telemetry.PprofFlag(flag.CommandLine)
	flag.Parse()

	stopPprof, err := startPprof()
	if err != nil {
		fatal(err)
	}
	defer stopPprof()

	fmt.Fprintf(os.Stderr, "starting %d-peer network with TPC-H sf=%g ...\n", *peers, *sf)
	net, err := bestpeer.NewNetwork(bestpeer.Config{
		NumPeers:          *peers,
		RangeIndexColumns: map[string][]string{tpch.LineItem: {"l_shipdate"}},
	})
	if err != nil {
		fatal(err)
	}
	if err := net.LoadTPCH(*sf); err != nil {
		fatal(err)
	}

	// Serving tier on every peer: worker 0 below drives it through a
	// real session so the dashboard's serving line and SHED% column have
	// live numbers.
	net.EnableServing(serving.Config{})

	stopReporters := net.StartTelemetryReporters(*report)
	defer stopReporters()
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Background workload: a few clients rotating over submitting peers
	// and engines, so every peer has traffic to report.
	queries := []string{
		`SELECT COUNT(*) FROM lineitem`,
		tpch.Q1Default(),
		`SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority`,
	}
	strategies := []peer.Strategy{peer.StrategyBasic, peer.StrategyParallel, peer.StrategyAdaptive}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			// Zipfian shipdate windows interleave with the fixed rotation.
			zipf := tpch.NewShipdateWorkload(int64(w)+1, true, 7)
			nextQuery := func(i int) string {
				if i%2 == 1 {
					return zipf.Next()
				}
				return queries[(i/2)%len(queries)]
			}
			// Worker 0 is a serving-tier client: one open session against
			// peer 0's front door, so sessions/admission/cache counters
			// move. The rest submit through the library path.
			var session *serving.Client
			if w == 0 {
				session = net.ServingClient("bptop-session", 0)
				if err := session.Open("", serving.ClassInteractive, ""); err != nil {
					session = nil
				}
			}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if session != nil {
					if _, err := session.Query(nextQuery(i), serving.CacheUse); err != nil && !serving.Overloaded(err) {
						// The session dies with its peer on failover; fall
						// back to the library path.
						session = nil
					}
					continue
				}
				at := rng.Intn(*peers)
				if net.PeerByID(net.Peers()[at].ID()) == nil {
					continue
				}
				_, _ = net.Query(at, nextQuery(i), bestpeer.QueryOptions{
					Strategy: strategies[rng.Intn(len(strategies))],
				})
			}
		}(w)
	}

	// Maintenance daemon: Algorithm 1 every refresh, consuming the cloud
	// sim AND the collector's aggregated telemetry.
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(*refresh)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if err := net.RunMaintenance(*refresh); err != nil {
					fmt.Fprintln(os.Stderr, "maintenance:", err)
				}
			}
		}
	}()

	if *crash > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-done:
				return
			case <-time.After(*crash):
				victim := net.Peers()[*peers/2].ID()
				_ = net.CrashPeer(victim)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	tick := time.NewTicker(*refresh)
	defer tick.Stop()
	start := time.Now()
	rendered := 0
loop:
	for {
		select {
		case <-sig:
			break loop
		case <-tick.C:
			render(net, start)
			rendered++
			if *frames > 0 && rendered >= *frames {
				break loop
			}
		}
	}
	close(done)
	wg.Wait()
	stopReporters()
	if *prom {
		fmt.Print(net.Bootstrap.Collector().ClusterText())
	}
}

// render redraws one dashboard frame: health table on top, the
// bootstrap's most recent events below.
func render(net *bestpeer.Network, start time.Time) {
	c := net.Bootstrap.Collector()
	now := time.Now()
	fmt.Print("\x1b[H\x1b[2J") // home + clear
	fmt.Printf("bptop — %d peers reporting, up %v\n\n",
		len(c.Peers()), now.Sub(start).Round(time.Second))
	fmt.Print(bootstrap.RenderDashboard(c.Healths(), now))
	// Compiled-executor summary: all in-process peers share the default
	// registry, so the counters aggregate across the whole network.
	hits := telemetry.Default.Counter("sqldb_plan_cache_hits_total").Value()
	misses := telemetry.Default.Counter("sqldb_plan_cache_misses_total").Value()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses) * 100
	}
	fmt.Printf("\nplan cache: %d hits / %d misses (%.1f%% hit rate), %d exprs compiled, %d plans compiled\n",
		hits, misses, rate,
		telemetry.Default.Counter("sqldb_expr_compiles_total").Value(),
		telemetry.Default.Counter("sqldb_plans_compiled_total").Value())
	// Executor summary: batches produced, average rows per batch,
	// selection-bitmap density, and how well the cost model's scan
	// estimates track actuals (median est/actual).
	batches := telemetry.Default.Counter("sqldb_batches_total").Value()
	brows := telemetry.Default.Counter("sqldb_batch_rows_total").Value()
	rowsPer := 0.0
	if batches > 0 {
		rowsPer = float64(brows) / float64(batches)
	}
	sel := telemetry.Default.Histogram("sqldb_batch_selectivity",
		[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1})
	selDensity := 0.0
	if sel.Count() > 0 {
		selDensity = sel.Sum() / float64(sel.Count()) * 100
	}
	ratio := telemetry.Default.Histogram("sqldb_cost_estimate_ratio",
		[]float64{0.1, 0.25, 0.5, 0.8, 1.25, 2, 4, 10})
	p50, _, _ := ratio.Quantiles()
	fmt.Printf("batch exec: %d batches (%.0f rows avg, %.1f%% sel density), est/actual p50=%.2f\n",
		batches, rowsPer, selDensity, p50)
	// Hardened-transport summary: retries/timeouts summed over every
	// destination the bootstrap knows, faults by the injection counters.
	var retries, timeouts int64
	for _, id := range append([]string{"bootstrap"}, net.Bootstrap.Peers()...) {
		retries += telemetry.Default.Counter("pnet_retries_total", telemetry.L("peer", id)).Value()
		timeouts += telemetry.Default.Counter("pnet_timeouts_total", telemetry.L("peer", id)).Value()
	}
	var faults int64
	for _, kind := range []string{"drop", "delay", "duplicate", "error", "partition"} {
		faults += telemetry.Default.Counter("pnet_faults_injected_total", telemetry.L("kind", kind)).Value()
	}
	fmt.Printf("transport: %d retries, %d timeouts, %d faults injected, %d handler panics\n",
		retries, timeouts, faults,
		telemetry.Default.Counter("pnet_handler_panics_total").Value())
	// Serving-tier summary: sessions, per-class admission outcomes, and
	// the result cache's hit economics.
	var admitted, shed int64
	for _, class := range []string{"interactive", "batch"} {
		admitted += telemetry.Default.Counter("serving_admitted_total", telemetry.L("class", class)).Value()
		shed += telemetry.Default.Counter("serving_shed_total", telemetry.L("class", class)).Value()
	}
	sHits := telemetry.Default.Counter("serving_cache_hits_total").Value()
	sMisses := telemetry.Default.Counter("serving_cache_misses_total").Value()
	sRate := 0.0
	if sHits+sMisses > 0 {
		sRate = float64(sHits) / float64(sHits+sMisses) * 100
	}
	fmt.Printf("serving: %d sessions open (%d total), %d admitted, %d shed, cache %d hits / %d misses (%.1f%% hit rate, %d entries)\n",
		telemetry.Default.Gauge("serving_sessions_open").Value(),
		telemetry.Default.Counter("serving_sessions_opened_total").Value(),
		admitted, shed, sHits, sMisses, sRate,
		telemetry.Default.Gauge("serving_cache_entries").Value())
	events := net.Bootstrap.Events()
	if len(events) > 0 {
		fmt.Println("\nrecent events:")
		from := len(events) - 5
		if from < 0 {
			from = 0
		}
		for _, e := range events[from:] {
			fmt.Printf("  [%v] %-8s %-14s %s\n", e.At.Round(time.Millisecond), e.Kind, e.Peer, e.Note)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bptop:", err)
	os.Exit(1)
}

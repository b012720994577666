// Command bpbench regenerates the paper's evaluation (Figs. 6-14) and
// the design-choice ablations, printing each experiment's series.
//
// Usage:
//
//	bpbench [-fig all|6|7|8|9|10|11|12|13|14|ablations|fanout|telemetry|monitor|faults|ingest] [-nodes 10,20,50] [-sf 0.0004]
//
// Five experiments are wall-clock rather than vtime: "fanout" compares
// sequential vs concurrent multi-peer fetch under an injected per-call
// service delay (JSON line for BENCH_fanout.json), "telemetry"
// measures the instrumentation overhead of the metrics/tracing layer on
// the fig-6 workload (JSON line for BENCH_telemetry.json), "monitor"
// measures the monitoring plane — reporter loops plus the bootstrap
// collector — on the same workload (JSON line for BENCH_monitor.json),
// "faults" prices the hardened RPC path (deadline guard + retry policy)
// against the bare path on the same workload (JSON line for
// BENCH_faults.json), and "serving" saturates the serving tier with 1k+
// concurrent client sessions — admission, shedding, and the result
// cache on/off (JSON line for BENCH_serving.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bestpeer/internal/bench"
	"bestpeer/internal/telemetry"
	"bestpeer/internal/tpch"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (6..14, 'ablations', 'fanout', or 'all')")
	fanoutPeers := flag.Int("fanout-peers", 8, "data peers for the wall-clock fan-out comparison")
	fanoutDelay := flag.Duration("fanout-delay", 10*time.Millisecond, "per-call service delay for the fan-out comparison")
	telemetryPeers := flag.Int("telemetry-peers", 4, "peers for the telemetry overhead measurement")
	telemetryQueries := flag.Int("telemetry-queries", 50, "queries per timed batch for the telemetry overhead measurement")
	monitorEpoch := flag.Duration("monitor-epoch", 50*time.Millisecond, "report epoch for the monitoring-plane overhead measurement")
	servingPeers := flag.Int("serving-peers", 4, "peers for the serving-tier saturation benchmark")
	servingClients := flag.Int("serving-clients", 1200, "concurrent client sessions for the serving-tier saturation benchmark")
	servingDuration := flag.Duration("serving-duration", 2*time.Second, "per-phase duration for the serving-tier saturation benchmark")
	hotspotQueries := flag.Int("hotspot-queries", 200, "queries per workload for the hotspot detection benchmark")
	ingestRows := flag.Int("ingest-rows", 20000, "production-table rows for the snapshot-vs-CDC ingest comparison")
	ingestRounds := flag.Int("ingest-rounds", 8, "churn+sync rounds for the ingest comparison")
	ingestChurn := flag.Float64("ingest-churn", 0.02, "per-round mutation fraction for the ingest comparison")
	ingestQueries := flag.Int("ingest-queries", 400, "serving queries per phase for the ingest impact measurement")
	zipfSkew := flag.Float64("zipf", tpch.DefaultZipfSkew, "Zipf exponent (>1) of the hotspot benchmark's skewed workload")
	nodes := flag.String("nodes", "10,20,50", "comma-separated cluster sizes")
	sf := flag.Float64("sf", 0.0004, "TPC-H scale factor contributed per node")
	seed := flag.Int64("seed", 1, "throughput simulator seed")
	gb := flag.Float64("gb", 1.0, "virtual data volume per node in GB (0 = real partition size)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /metrics on this address")
	flag.Parse()

	if *pprofAddr != "" {
		addr, closeDebug, err := telemetry.StartDebugServer(*pprofAddr, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpbench: pprof: %v\n", err)
			os.Exit(1)
		}
		defer closeDebug()
		fmt.Fprintf(os.Stderr, "pprof+metrics on http://%s/debug/pprof/\n", addr)
	}

	cfg := bench.Config{PerNodeSF: *sf, Seed: *seed, TargetPerNodeBytes: *gb * 1e9}
	for _, part := range strings.Split(*nodes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bpbench: bad node count %q\n", part)
			os.Exit(2)
		}
		cfg.Nodes = append(cfg.Nodes, n)
	}

	runners := map[string]func(bench.Config) (*bench.Table, error){
		"6": bench.Fig6, "7": bench.Fig7, "8": bench.Fig8, "9": bench.Fig9,
		"10": bench.Fig10, "11": bench.Fig11, "12": bench.Fig12,
		"13": bench.Fig13, "14": bench.Fig14, "ablations": bench.Ablations,
	}

	if *fig == "fanout" {
		r, err := bench.FanoutWallClock(*fanoutPeers, *fanoutDelay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpbench: fanout: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(r.JSONLine())
		return
	}

	if *fig == "telemetry" {
		r, err := bench.TelemetryOverhead(*telemetryPeers, *telemetryQueries)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpbench: telemetry: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(r.JSONLine())
		return
	}

	if *fig == "faults" {
		r, err := bench.FaultPathOverhead(*telemetryPeers, *telemetryQueries)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpbench: faults: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(r.JSONLine())
		return
	}

	if *fig == "serving" {
		r, err := bench.ServingSaturation(*servingPeers, *servingClients, *servingDuration)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpbench: serving: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(r.JSONLine())
		return
	}

	if *fig == "ingest" {
		r, err := bench.IngestComparison(*ingestRows, *ingestRounds, *ingestChurn, *ingestQueries)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpbench: ingest: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(r.JSONLine())
		return
	}

	if *fig == "hotspot" {
		r, err := bench.HotspotDetection(*telemetryPeers, *hotspotQueries, *zipfSkew)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpbench: hotspot: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(r.JSONLine())
		return
	}

	if *fig == "monitor" {
		r, err := bench.MonitorOverhead(*telemetryPeers, *telemetryQueries, *monitorEpoch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpbench: monitor: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(r.JSONLine())
		return
	}

	run := func(name string, f func(bench.Config) (*bench.Table, error)) {
		t, err := f(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpbench: figure %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(t.Format())
	}

	if *fig == "all" {
		for _, name := range []string{"6", "7", "8", "9", "10", "11", "12", "13", "14", "ablations"} {
			run(name, runners[name])
		}
		return
	}
	f, ok := runners[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "bpbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	run(*fig, f)
}

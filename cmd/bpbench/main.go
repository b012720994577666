// Command bpbench regenerates the paper's evaluation (Figs. 6-14) and
// the design-choice ablations, printing each experiment's series.
//
// Usage:
//
//	bpbench [-fig all|6|7|8|9|10|11|12|13|14|ablations] [-nodes 10,20,50] [-sf 0.0004]
//
// Every experiment runs in virtual time (internal/vtime), so the output
// is deterministic: the same flags print the same bytes. Wall-clock
// measurements live in the repo's benchmark (benchmark/, BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bestpeer/internal/bench"
	"bestpeer/internal/telemetry"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (6..14, 'ablations', or 'all')")
	nodes := flag.String("nodes", "10,20,50", "comma-separated cluster sizes")
	sf := flag.Float64("sf", 0.0004, "TPC-H scale factor contributed per node")
	seed := flag.Int64("seed", 1, "throughput simulator seed")
	gb := flag.Float64("gb", 1.0, "virtual data volume per node in GB (0 = real partition size)")
	startPprof := telemetry.PprofFlag(flag.CommandLine)
	flag.Parse()

	stopPprof, err := startPprof()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpbench: %v\n", err)
		os.Exit(1)
	}
	defer stopPprof()

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

// Command benchmark is the repository's one end-to-end benchmark: it
// builds a fresh TPC-H cluster per workload, serves it on loopback TCP,
// drives it through serving.Client sessions from this process, checks
// the answers against a single-node oracle, and reports end-to-end
// metrics plus a per-layer budget measured from outside the program.
// README.md defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// config is the benchmark's shape. The flag defaults and frozenConfig
// are the frozen shape README.md describes. The flags beyond --workload,
// --seed, --seconds and --trace exist for local work and are printed in
// the run header; what frozenConfig sets has no flag, and only the smoke
// test runs with other values.
type config struct {
	workload    string
	seed        int64
	window      time.Duration
	warmup      time.Duration
	trace       bool
	peers       int
	sf          float64
	clients     int
	setups      int           // clusters built per run; setup_s is the median
	traceOps    int           // operations the traced pass replays
	ingestEvery time.Duration // open-loop churn round interval
	mutations   int           // ERP mutations per churn round
	outDir      string        // where the traced pass writes trace-<workload>.jsonl
}

func frozenConfig() config {
	return config{setups: 3, traceOps: 200, ingestEvery: 250 * time.Millisecond, mutations: 200, outDir: "benchmark/out"}
}

// memoryLimit is the soft memory limit the benchmark process runs under
// (what GOMEMLIMIT=2GiB would set), part of the frozen shape. The
// cluster holds ~0.55 GB live. Without a limit the default GC pacer lets
// point_lookup's garbage (8 batch contexts, ~0.5 MB, per lookup) grow
// the heap to ~9 GB; run time is then dominated by first-touch page
// faults and latency flips between two modes from run to run.
const memoryLimit = 2 << 30

func main() {
	debug.SetMemoryLimit(memoryLimit)
	cfg := frozenConfig()
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four, traced)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated operation sequence")
	flag.Float64Var(&seconds, "seconds", 10, "measured window length")
	flag.IntVar(&trace, "trace", 0, "1 = also run the traced pass and report the per-layer metrics")
	flag.DurationVar(&cfg.warmup, "warmup", 5*time.Second, "warm-up before the measured window")
	flag.IntVar(&cfg.peers, "peers", 8, "peers in the cluster")
	flag.Float64Var(&cfg.sf, "sf", 0.08, "TPC-H scale factor of the whole network")
	flag.IntVar(&cfg.clients, "clients", 2, "closed-loop client sessions (mixed_ingest uses one, plus the ingest goroutine)")
	flag.Parse()
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace != 0

	// No workload named: the full local run, every workload traced, one
	// JSON document at the end.
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	} else {
		cfg.trace = true
	}
	printHeader(os.Stdout, cfg)
	all := make(map[string]*result)
	ok := true
	for _, name := range names {
		cfg.workload = name
		res, err := runWorkload(cfg, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", name+":", err)
			os.Exit(1)
		}
		all[name] = res
		ok = ok && res.Correct
	}
	if len(names) == 1 {
		emit(os.Stdout, all[names[0]].contractJSON(cfg.trace))
	} else {
		emit(os.Stdout, all)
	}
	if !ok {
		os.Exit(1)
	}
}

func emit(w io.Writer, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(b))
}

// commit is the source revision; run.sh sets it at link time.
var commit = "unknown"

func printHeader(w io.Writer, cfg config) {
	fmt.Fprintf(w, "# commit=%s go=%s gomaxprocs=%d nproc=%d memlimit=%dMiB peers=%d sf=%g clients=%d seed=%d window=%s warmup=%s setups=%d trace_ops=%d ingest=%dx%s\n",
		commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), memoryLimit>>20,
		cfg.peers, cfg.sf, cfg.clients, cfg.seed, cfg.window, cfg.warmup,
		cfg.setups, cfg.traceOps, cfg.mutations, cfg.ingestEvery)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"` // samples behind the value
}

// result is one workload's outcome.
type result struct {
	Workload   string            `json:"workload"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Mismatches int               `json:"oracle_mismatches"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	Violations []string          `json:"violations,omitempty"`
}

// contractJSON is the driver's result line: the end-to-end metrics for
// an untraced run, the per-layer metrics for a traced one.
func (r *result) contractJSON(traced bool) interface{} {
	m := r.EndToEnd
	if traced {
		m = r.PerLayer
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m}
}

func (r *result) print(w io.Writer) {
	for _, set := range []map[string]metric{r.EndToEnd, r.PerLayer} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := set[name]
			fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", r.Workload, name, m.Value, m.Unit, m.N)
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "%s VIOLATION %s\n", r.Workload, v)
	}
}

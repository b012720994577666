package bench

import (
	"encoding/json"
	"fmt"
	"time"

	"bestpeer/internal/serving"
	"bestpeer/internal/telemetry"
	"bestpeer/internal/throughput"
	"bestpeer/internal/tpch"
)

// This file prices the serving tier at saturation: 1k+ real concurrent
// client sessions (goroutines, wall clock — not the virtual-time
// simulator) multiplexed over the message substrate into a handful of
// peers, with the admission queue deliberately undersized so the tier
// must shed. The benchmark runs the same repeated-query mix twice —
// result cache bypassed, then enabled — and reports per-class
// QPS/p95/p99, typed-rejection counts, and the cache counters, so both
// tentpole claims (graceful shedding with bounded admitted-interactive
// p99, measurable cache QPS win) are a single JSON line apart.

// ServingClassStats is one admission class's measured outcome.
type ServingClassStats struct {
	Clients   int     `json:"clients"`
	Completed int64   `json:"completed"`
	Rejected  int64   `json:"rejected"`
	Failed    int64   `json:"failed"`
	QPS       float64 `json:"qps"`
	AvgMS     float64 `json:"avg_ms"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
	P99MS     float64 `json:"p99_ms"`
}

// ServingPhase is one run of the client fleet under a cache mode.
type ServingPhase struct {
	Cache       string            `json:"cache"`
	Interactive ServingClassStats `json:"interactive"`
	Batch       ServingClassStats `json:"batch"`
	TotalQPS    float64           `json:"total_qps"`
	// Telemetry deltas over the phase.
	Shed       int64 `json:"shed_total"`
	CacheHits  int64 `json:"cache_hits"`
	CacheMiss  int64 `json:"cache_misses"`
	CacheEvict int64 `json:"cache_evictions"`
}

// ServingSaturationResult is one saturation comparison, emitted as a
// JSON line for BENCH_serving.json.
type ServingSaturationResult struct {
	Peers       int          `json:"peers"`
	Clients     int          `json:"clients"`
	Interactive int          `json:"interactive_clients"`
	Batch       int          `json:"batch_clients"`
	DurationS   float64      `json:"phase_duration_s"`
	Workers     int          `json:"workers_per_peer"`
	NoCache     ServingPhase `json:"no_cache"`
	WithCache   ServingPhase `json:"with_cache"`
	// CacheSpeedup is total with-cache QPS over total no-cache QPS.
	CacheSpeedup float64 `json:"cache_speedup"`
}

// JSONLine renders the result as a single JSON line.
func (r *ServingSaturationResult) JSONLine() string {
	b, _ := json.Marshal(r)
	return string(b)
}

// servingShedTotal sums the typed-rejection counters over both classes.
func servingShedTotal() int64 {
	var n int64
	for _, class := range []string{serving.ClassInteractive, serving.ClassBatch} {
		n += telemetry.Default.Counter("serving_shed_total", telemetry.L("class", class)).Value()
	}
	return n
}

// ServingSaturation drives clients concurrent sessions (3 interactive :
// 1 batch) against a peers-node loaded network for duration per phase.
func ServingSaturation(peers, clients int, duration time.Duration) (*ServingSaturationResult, error) {
	if peers < 1 || clients < 1 {
		return nil, fmt.Errorf("bench: serving saturation needs >=1 peer and >=1 client")
	}
	cfg := Default()
	cfg.PerNodeSF = 0.002
	net, err := buildBestPeer(cfg, peers)
	if err != nil {
		return nil, err
	}
	// Undersized workers and tight wait budgets relative to the fleet
	// force the saturation the benchmark is about; the queue is deep
	// enough that shedding comes from the quantile feedback, not a
	// trivially full queue.
	net.EnableServing(serving.Config{
		Workers:    8,
		QueueDepth: clients,
		ShedP95:    40 * time.Millisecond,
		ShedP99:    80 * time.Millisecond,
		ShedWindow: 500 * time.Millisecond,
	})

	// The repeated-query mix: small aggregates, rotated per client, so
	// the with-cache phase sees genuine repeats without every client
	// hammering one key.
	queries := []string{
		`SELECT COUNT(*) FROM lineitem`,
		tpch.Q1Default(),
		`SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority`,
		`SELECT COUNT(*) FROM orders`,
	}

	batchShare := clients / 4
	interShare := clients - batchShare

	// One session per simulated client, spread round-robin over peers.
	openAll := func(class string, count, offset int) ([]*serving.Client, error) {
		out := make([]*serving.Client, count)
		for c := 0; c < count; c++ {
			cl := net.ServingClient(fmt.Sprintf("bench-%s-%04d", class, c), (offset+c)%peers)
			if err := cl.Open("", class, ""); err != nil {
				return nil, fmt.Errorf("bench: opening %s session %d: %w", class, c, err)
			}
			out[c] = cl
		}
		return out, nil
	}
	interClients, err := openAll(serving.ClassInteractive, interShare, 0)
	if err != nil {
		return nil, err
	}
	batchClients, err := openAll(serving.ClassBatch, batchShare, interShare)
	if err != nil {
		return nil, err
	}

	runPhase := func(mode serving.CacheMode) ServingPhase {
		shed0 := servingShedTotal()
		hits0 := counterValue("serving_cache_hits_total")
		miss0 := counterValue("serving_cache_misses_total")
		evict0 := counterValue("serving_cache_evictions_total")
		results := throughput.RunLive(duration,
			throughput.LiveClass{
				Name:    serving.ClassInteractive,
				Clients: interShare,
				Do: func(c int) error {
					_, err := interClients[c].Query(queries[c%len(queries)], mode)
					return err
				},
				IsRejection: serving.Overloaded,
				Backoff:     time.Millisecond,
			},
			throughput.LiveClass{
				Name:    serving.ClassBatch,
				Clients: batchShare,
				Do: func(c int) error {
					_, err := batchClients[c].Query(queries[c%len(queries)], mode)
					return err
				},
				IsRejection: serving.Overloaded,
				Backoff:     time.Millisecond,
			},
		)
		ph := ServingPhase{
			Cache:       mode.String(),
			Interactive: classStats(results[0]),
			Batch:       classStats(results[1]),
			Shed:        servingShedTotal() - shed0,
			CacheHits:   counterValue("serving_cache_hits_total") - hits0,
			CacheMiss:   counterValue("serving_cache_misses_total") - miss0,
			CacheEvict:  counterValue("serving_cache_evictions_total") - evict0,
		}
		ph.TotalQPS = ph.Interactive.QPS + ph.Batch.QPS
		return ph
	}

	r := &ServingSaturationResult{
		Peers:       peers,
		Clients:     clients,
		Interactive: interShare,
		Batch:       batchShare,
		DurationS:   duration.Seconds(),
		Workers:     8,
	}
	r.NoCache = runPhase(serving.CacheBypass)
	r.WithCache = runPhase(serving.CacheUse)
	if r.NoCache.TotalQPS > 0 {
		r.CacheSpeedup = r.WithCache.TotalQPS / r.NoCache.TotalQPS
	}
	for _, cl := range interClients {
		_, _ = cl.Close()
	}
	for _, cl := range batchClients {
		_, _ = cl.Close()
	}
	return r, nil
}

// classStats converts a live-driver result into the JSON shape.
func classStats(r throughput.ClassResult) ServingClassStats {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return ServingClassStats{
		Clients:   r.Clients,
		Completed: r.Completed,
		Rejected:  r.Rejected,
		Failed:    r.Failed,
		QPS:       r.QPS,
		AvgMS:     ms(r.Avg),
		P50MS:     ms(r.P50),
		P95MS:     ms(r.P95),
		P99MS:     ms(r.P99),
	}
}

// counterValue reads one unlabeled counter from the default registry.
func counterValue(name string) int64 {
	return telemetry.Default.Counter(name).Value()
}

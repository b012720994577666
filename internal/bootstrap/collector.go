package bootstrap

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bestpeer/internal/telemetry"
)

// The collector is the bootstrap half of the monitoring plane: peers
// push delta reports (telemetry.report verb), the collector merges them
// into a cluster-wide registry under peer=<id> labels and keeps a
// per-peer rolling window of recent deltas. Algorithm 1's daemon reads
// the derived health scores next to the cloud sim's CPU/storage
// metrics, so a peer that looks healthy to CloudWatch but fails its
// RPCs (or drags its p99) still triggers fail-over or auto-scaling —
// the HadoopDB-job-tracker view the paper's bootstrap lacks.

// MsgTelemetryReport is the verb carrying peer delta reports.
const MsgTelemetryReport = "telemetry.report"

// collectorWindow bounds the per-peer rolling window (reports kept).
const collectorWindow = 8

// windowSample is one absorbed report reduced to the signals the health
// score uses.
type windowSample struct {
	at           time.Time
	queries      int64
	errors       int64
	rows         int64
	shuffle      int64
	admitted     int64
	shed         int64
	latency      telemetry.HistogramSnapshot
	queue        telemetry.HistogramSnapshot
	servingQueue telemetry.HistogramSnapshot
	rpcCalls     map[string]int64 // destination -> calls this delta
	rpcErrs      map[string]int64
}

// peerWindow is one peer's rolling report window.
type peerWindow struct {
	ring    []windowSample
	lastSeq uint64
	lastAt  time.Time
	reports uint64
}

// PeerHealth is one peer's derived health, computed over its rolling
// window plus every other peer's sender-side RPC stats about it.
type PeerHealth struct {
	Peer string
	// Score is 1.0 for a healthy peer, decaying toward 0 with RPC
	// failure rate and p99 latency overruns.
	Score float64
	// QPS is the windowed query rate at the peer.
	QPS float64
	// P99QuerySeconds is the p99 of Peer.Query wall time in the window
	// (0 when no queries ran).
	P99QuerySeconds float64
	// ErrorRate is failed queries over total queries in the window.
	ErrorRate float64
	// RPCFailureRate is failed calls TO this peer over total calls,
	// observed by every reporting peer's sender side.
	RPCFailureRate float64
	// RPCCalls is the observation count behind RPCFailureRate.
	RPCCalls int64
	// RowsScanned and ShuffleBytes sum the window's load signals.
	RowsScanned  int64
	ShuffleBytes int64
	// QueueWaitP95 is the p95 fan-out pool queue wait (seconds).
	QueueWaitP95 float64
	// ServingQueueP99 is the p99 serving-tier admission wait (seconds);
	// ServingAdmitted and ServingShed count the window's admission
	// outcomes and ServingShedRate is shed over (admitted + shed). All
	// zero for peers without a serving tier.
	ServingQueueP99 float64
	ServingAdmitted int64
	ServingShed     int64
	ServingShedRate float64
	// LastReport is when the peer's latest report arrived; Reports
	// counts all absorbed reports.
	LastReport time.Time
	Reports    uint64
}

// Collector aggregates peer telemetry at the bootstrap.
type Collector struct {
	mu      sync.Mutex
	cluster *telemetry.Registry
	windows map[string]*peerWindow
	// p99Budget normalizes the latency penalty in Score (a p99 at or
	// beyond the budget zeroes the latency component).
	p99Budget time.Duration
	// now is the time source (overridable in tests).
	now func() time.Time
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		cluster:   telemetry.NewRegistry(),
		windows:   make(map[string]*peerWindow),
		p99Budget: 2 * time.Second,
		now:       time.Now,
	}
}

// Absorb merges one report into the cluster registry and the reporter's
// rolling window.
func (c *Collector) Absorb(rep telemetry.Report) error {
	if rep.Peer == "" {
		return fmt.Errorf("collector: report without peer id")
	}
	s := windowSample{rpcCalls: make(map[string]int64), rpcErrs: make(map[string]int64)}
	for _, p := range rep.Delta.Points {
		switch p.Name {
		case "peer_queries_total":
			s.queries += int64(p.Value)
		case "peer_query_errors_total":
			s.errors += int64(p.Value)
		case "peer_rows_scanned_total":
			s.rows += int64(p.Value)
		case "peer_shuffle_bytes_total":
			s.shuffle += int64(p.Value)
		case "peer_query_seconds":
			if p.Hist != nil {
				s.latency = *p.Hist
			}
		case "peer_fanout_queue_seconds":
			if p.Hist != nil {
				s.queue = *p.Hist
			}
		case "peer_serving_queue_seconds":
			if p.Hist != nil {
				s.servingQueue = *p.Hist
			}
		case "peer_serving_admitted_total":
			s.admitted += int64(p.Value)
		case "peer_serving_shed_total":
			s.shed += int64(p.Value)
		case "peer_rpc_calls_total":
			if to := labelValue(p.Labels, "to"); to != "" {
				s.rpcCalls[to] += int64(p.Value)
			}
		case "peer_rpc_errors_total":
			if to := labelValue(p.Labels, "to"); to != "" {
				s.rpcErrs[to] += int64(p.Value)
			}
		}
	}

	c.mu.Lock()
	w := c.windows[rep.Peer]
	if w == nil {
		w = &peerWindow{}
		c.windows[rep.Peer] = w
	}
	// Duplicate-delivery dedup: the hardened transport may re-send a
	// report whose first delivery actually landed (retry after a lost
	// reply, or an injected duplicate). A sequence number at or below
	// the newest absorbed one has been counted already — absorbing it
	// again would double the delta into the window and the cluster
	// registry, corrupting rates. Dropping is the safe side: at worst
	// one epoch's activity is undercounted, never double-counted.
	if w.reports > 0 && rep.Seq != 0 && rep.Seq <= w.lastSeq {
		c.mu.Unlock()
		return nil
	}
	s.at = c.now()
	w.ring = append(w.ring, s)
	if len(w.ring) > collectorWindow {
		w.ring = w.ring[len(w.ring)-collectorWindow:]
	}
	w.lastSeq = rep.Seq
	w.lastAt = s.at
	w.reports++
	c.mu.Unlock()

	return c.cluster.Merge(rep.Delta, telemetry.L("peer", rep.Peer))
}

// Drop forgets a peer's window (fail-over: the replacement identity
// starts a fresh window; the dead peer must not keep dragging scores).
// The peer's already-merged series stay in the cluster registry as
// history.
func (c *Collector) Drop(peer string) {
	c.mu.Lock()
	delete(c.windows, peer)
	c.mu.Unlock()
}

// Peers returns the IDs with a live window, sorted.
func (c *Collector) Peers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.windows))
	for id := range c.windows {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Health derives one peer's health from its window. ok is false when
// the peer never reported (the daemon then falls back to cloud metrics
// alone, which keeps report-free deployments exactly as before).
func (c *Collector) Health(peer string) (PeerHealth, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.windows[peer]
	if w == nil {
		return PeerHealth{}, false
	}
	h := PeerHealth{Peer: peer, LastReport: w.lastAt, Reports: w.reports}

	var queries, errs int64
	lat := telemetry.HistogramSnapshot{}
	queue := telemetry.HistogramSnapshot{}
	servingQueue := telemetry.HistogramSnapshot{}
	for _, s := range w.ring {
		queries += s.queries
		errs += s.errors
		h.RowsScanned += s.rows
		h.ShuffleBytes += s.shuffle
		h.ServingAdmitted += s.admitted
		h.ServingShed += s.shed
		lat = addHist(lat, s.latency)
		queue = addHist(queue, s.queue)
		servingQueue = addHist(servingQueue, s.servingQueue)
	}
	if queries > 0 {
		h.ErrorRate = float64(errs) / float64(queries)
	}
	if lat.Count() > 0 {
		h.P99QuerySeconds = lat.Quantile(0.99)
	}
	if queue.Count() > 0 {
		h.QueueWaitP95 = queue.Quantile(0.95)
	}
	if servingQueue.Count() > 0 {
		h.ServingQueueP99 = servingQueue.Quantile(0.99)
	}
	if total := h.ServingAdmitted + h.ServingShed; total > 0 {
		h.ServingShedRate = float64(h.ServingShed) / float64(total)
	}
	if len(w.ring) >= 2 {
		span := w.ring[len(w.ring)-1].at.Sub(w.ring[0].at)
		if span > 0 {
			var afterFirst int64
			for _, s := range w.ring[1:] {
				afterFirst += s.queries
			}
			h.QPS = float64(afterFirst) / span.Seconds()
		}
	}

	// RPC failure rate about this peer: every other reporter's
	// sender-side view of calls to it. Reachability is a *now* signal,
	// so each observer contributes only its newest sample — summing
	// windows (or reaching back for older samples) would let the bulk
	// of successful calls from load time wash out a fresh outage. An
	// observer whose latest report made no calls to the peer simply
	// contributes no evidence this epoch.
	var rpcErrs int64
	for id, ow := range c.windows {
		if id == peer || len(ow.ring) == 0 {
			continue
		}
		s := ow.ring[len(ow.ring)-1]
		h.RPCCalls += s.rpcCalls[peer]
		rpcErrs += s.rpcErrs[peer]
	}
	if h.RPCCalls > 0 {
		h.RPCFailureRate = float64(rpcErrs) / float64(h.RPCCalls)
		if h.RPCFailureRate > 1 {
			h.RPCFailureRate = 1
		}
	}

	h.Score = c.score(h)
	return h, true
}

// score maps health signals to [0,1]: the RPC failure rate is the
// dominant penalty (a peer nobody can call is effectively down), the
// p99 overrun a secondary one, and a shedding serving tier — clients
// being turned away even though RPCs succeed — a further deduction so
// Algorithm 1's auto-scaler sees saturation before it sees failures.
func (c *Collector) score(h PeerHealth) float64 {
	s := 1.0
	s -= 0.7 * h.RPCFailureRate
	if c.p99Budget > 0 && h.P99QuerySeconds > 0 {
		over := h.P99QuerySeconds / c.p99Budget.Seconds()
		if over > 1 {
			over = 1
		}
		s -= 0.3 * over
	}
	s -= 0.2 * h.ServingShedRate
	if s < 0 {
		s = 0
	}
	return s
}

// Healths derives every reporting peer's health, sorted by ID.
func (c *Collector) Healths() []PeerHealth {
	var out []PeerHealth
	for _, id := range c.Peers() {
		if h, ok := c.Health(id); ok {
			out = append(out, h)
		}
	}
	return out
}

// Cluster returns the merged cluster registry.
func (c *Collector) Cluster() *telemetry.Registry { return c.cluster }

// ClusterText renders the cluster registry as Prometheus-style text —
// the whole network's metrics in one exposition.
func (c *Collector) ClusterText() string { return c.cluster.Text() }

// addHist merges two delta snapshots (empty operands pass through; a
// bounds mismatch keeps the accumulator).
func addHist(acc, d telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	if d.Count() == 0 && len(d.Bounds) == 0 {
		return acc
	}
	if len(acc.Bounds) == 0 {
		return telemetry.HistogramSnapshot{
			Bounds: append([]float64(nil), d.Bounds...),
			Counts: append([]int64(nil), d.Counts...),
			Sum:    d.Sum,
		}
	}
	if len(acc.Bounds) != len(d.Bounds) || len(acc.Counts) != len(d.Counts) {
		return acc
	}
	out := telemetry.HistogramSnapshot{
		Bounds: append([]float64(nil), acc.Bounds...),
		Counts: append([]int64(nil), acc.Counts...),
		Sum:    acc.Sum + d.Sum,
	}
	for i := range d.Counts {
		out.Counts[i] += d.Counts[i]
	}
	return out
}

// labelValue finds one label's value.
func labelValue(labels []telemetry.Label, key string) string {
	for _, l := range labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

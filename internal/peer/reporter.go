package peer

import (
	"sync"
	"time"

	"bestpeer/internal/bootstrap"
	"bestpeer/internal/telemetry"
)

// The reporter loop: every epoch the peer exports its private registry,
// subtracts the previous export, and pushes the delta to the bootstrap
// over the telemetry.report verb. The bootstrap's collector merges the
// deltas into per-peer rolling windows that feed Algorithm 1's health
// scores. A report is sent even when empty — its arrival time is the
// liveness signal the dashboard shows as last-report age.

// reporterState tracks what the previous report already shipped.
type reporterState struct {
	mu         sync.Mutex
	last       telemetry.RegistrySnapshot
	lastFan    telemetry.HistogramSnapshot
	lastAccess map[string]int64 // "table\x00path" -> last shipped total
	seq        uint64
}

// ReportTelemetry pushes one delta report to the bootstrap. The
// baseline snapshot only advances after a successful delivery, so a
// failed push's activity rides along in the next epoch's delta instead
// of being lost. The fan-out queue-wait histogram lives in the
// process-wide registry (the worker pool is shared by every peer in
// the process), so its delta is injected into the report as
// peer_fanout_queue_seconds: queue pressure on the shared pool stalls
// this peer's rounds no matter which peer's round filled it.
//
// The push fails like any other call when this peer (or the bootstrap)
// is down — a crashed peer cannot announce its own death, which is
// exactly why the collector also scores peers from other peers'
// sender-side RPC stats.
func (p *Peer) ReportTelemetry() error {
	if p.pm == nil {
		return nil
	}
	p.rep.mu.Lock()
	defer p.rep.mu.Unlock()
	cur := p.pm.reg.Export()
	delta := cur.Delta(p.rep.last)

	fan := telemetry.Default.Histogram("engine_fanout_queue_seconds", nil).Snapshot()
	fanDelta := fan.Sub(p.rep.lastFan)
	if fanDelta.Count() > 0 {
		delta.Points = append(delta.Points, telemetry.PointSnapshot{
			Name: "peer_fanout_queue_seconds", Kind: "histogram",
			Value: float64(fanDelta.Count()), Hist: &fanDelta,
		})
		delta.Sort()
	}

	// Storage-tier per-table access counters live in the embedded sqldb,
	// not the peer registry; inject their deltas the same way the fan-out
	// histogram rides along. The baseline map only advances with the rest
	// of the state after a successful push.
	access, accessTotals := p.accessDelta()
	if len(access) > 0 {
		delta.Points = append(delta.Points, access...)
		delta.Sort()
	}

	rep := telemetry.Report{Peer: p.id, Seq: p.rep.seq + 1, Delta: delta}
	size := int64(64 + 48*len(rep.Delta.Points))
	if _, err := p.ep.Call(p.env.Bootstrap.ID(), bootstrap.MsgTelemetryReport, rep, size); err != nil {
		return err
	}
	p.rep.last = cur
	p.rep.lastFan = fan
	p.rep.lastAccess = accessTotals
	p.rep.seq++
	return nil
}

// accessDelta turns the embedded database's per-table access totals
// into peer_table_access_total counter deltas against the last shipped
// baseline. Caller holds p.rep.mu. The returned totals map becomes the
// new baseline once the report is delivered.
func (p *Peer) accessDelta() ([]telemetry.PointSnapshot, map[string]int64) {
	if p.db == nil {
		return nil, p.rep.lastAccess
	}
	totals := make(map[string]int64)
	var pts []telemetry.PointSnapshot
	add := func(table, path string, v int64) {
		key := table + "\x00" + path
		totals[key] = v
		if d := v - p.rep.lastAccess[key]; d > 0 {
			pts = append(pts, telemetry.PointSnapshot{
				Name: "peer_table_access_total", Kind: "counter", Value: float64(d),
				Labels: []telemetry.Label{telemetry.L("path", path), telemetry.L("table", table)},
			})
		}
	}
	for _, c := range p.db.AccessCounts() {
		add(c.Table, "scan", c.Scans)
		add(c.Table, "index", c.IndexReads)
	}
	return pts, totals
}

// StartTelemetryReporter launches the epoch reporter loop and returns
// its stop function (idempotent). Failed pushes are dropped; the next
// epoch's delta carries the missed activity because the baseline
// snapshot only advances on successful delivery — losing one report
// loses at most its arrival-time freshness.
func (p *Peer) StartTelemetryReporter(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				_ = p.ReportTelemetry()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

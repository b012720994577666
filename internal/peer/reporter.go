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
	mu      sync.Mutex
	last    telemetry.RegistrySnapshot
	lastFan telemetry.HistogramSnapshot
	seq     uint64
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

	rep := telemetry.Report{Peer: p.id, Seq: p.rep.seq + 1, Delta: delta}
	size := int64(64 + 48*len(rep.Delta.Points))
	if _, err := p.ep.Call(p.env.Bootstrap.ID(), bootstrap.MsgTelemetryReport, rep, size); err != nil {
		return err
	}
	p.rep.last = cur
	p.rep.lastFan = fan
	p.rep.seq++
	return nil
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

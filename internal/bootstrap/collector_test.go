package bootstrap

import (
	"crypto/ed25519"
	"strings"
	"testing"
	"time"

	"bestpeer/internal/cloud"
	"bestpeer/internal/pnet"
	"bestpeer/internal/telemetry"
)

// latencyHist builds a delta histogram snapshot with n observations at
// value v (seconds) on a two-bucket layout.
func latencyHist(v float64, n int64) telemetry.HistogramSnapshot {
	bounds := []float64{0.5, 1, 2.5, 5}
	counts := make([]int64, len(bounds)+1)
	idx := len(bounds)
	for i, b := range bounds {
		if v <= b {
			idx = i
			break
		}
	}
	counts[idx] = n
	return telemetry.HistogramSnapshot{Bounds: bounds, Counts: counts, Sum: v * float64(n)}
}

func counterPoint(name string, v float64, labels ...telemetry.Label) telemetry.PointSnapshot {
	return telemetry.PointSnapshot{Name: name, Labels: labels, Kind: "counter", Value: v}
}

func TestCollectorHealthFromWindows(t *testing.T) {
	c := NewCollector()
	base := time.Unix(1000, 0)
	tick := 0
	c.now = func() time.Time { tick++; return base.Add(time.Duration(tick) * time.Second) }

	// peer-1 reports twice: 10 then 30 queries, 2 errors total, slow p99.
	lh := latencyHist(3, 10)
	if err := c.Absorb(telemetry.Report{Peer: "peer-1", Seq: 1, Delta: telemetry.RegistrySnapshot{Points: []telemetry.PointSnapshot{
		counterPoint("peer_queries_total", 10),
		counterPoint("peer_rows_scanned_total", 500),
	}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Absorb(telemetry.Report{Peer: "peer-1", Seq: 2, Delta: telemetry.RegistrySnapshot{Points: []telemetry.PointSnapshot{
		counterPoint("peer_queries_total", 30),
		counterPoint("peer_query_errors_total", 2),
		counterPoint("peer_shuffle_bytes_total", 2048),
		{Name: "peer_query_seconds", Kind: "histogram", Value: 10, Hist: &lh},
	}}}); err != nil {
		t.Fatal(err)
	}
	// peer-2's sender side saw calls to peer-1 fail.
	if err := c.Absorb(telemetry.Report{Peer: "peer-2", Seq: 1, Delta: telemetry.RegistrySnapshot{Points: []telemetry.PointSnapshot{
		counterPoint("peer_rpc_calls_total", 10, telemetry.L("to", "peer-1")),
		counterPoint("peer_rpc_errors_total", 9, telemetry.L("to", "peer-1")),
	}}}); err != nil {
		t.Fatal(err)
	}

	h, ok := c.Health("peer-1")
	if !ok {
		t.Fatal("no health for peer-1")
	}
	if h.Reports != 2 {
		t.Errorf("reports = %d", h.Reports)
	}
	if h.RowsScanned != 500 || h.ShuffleBytes != 2048 {
		t.Errorf("rows=%d shuffle=%d", h.RowsScanned, h.ShuffleBytes)
	}
	if want := 2.0 / 40.0; h.ErrorRate != want {
		t.Errorf("error rate = %v, want %v", h.ErrorRate, want)
	}
	// 30 queries in the 1s between the two samples.
	if h.QPS != 30 {
		t.Errorf("qps = %v", h.QPS)
	}
	if h.P99QuerySeconds < 2.5 || h.P99QuerySeconds > 5 {
		t.Errorf("p99 = %v, want within the 3s bucket", h.P99QuerySeconds)
	}
	if h.RPCCalls != 10 || h.RPCFailureRate != 0.9 {
		t.Errorf("rpc calls=%d failure=%v", h.RPCCalls, h.RPCFailureRate)
	}
	if h.Score >= 0.5 {
		t.Errorf("score = %v, want heavily penalized", h.Score)
	}
	// peer-2 is healthy: nobody reported failures about it.
	h2, _ := c.Health("peer-2")
	if h2.RPCFailureRate != 0 || h2.Score != 1 {
		t.Errorf("peer-2 health = %+v", h2)
	}

	// The cluster registry accumulated under peer labels.
	text := c.ClusterText()
	if !strings.Contains(text, `peer_queries_total{peer="peer-1"} 40`) {
		t.Errorf("cluster text missing merged counter:\n%s", text)
	}

	c.Drop("peer-1")
	if _, ok := c.Health("peer-1"); ok {
		t.Error("dropped peer still has a window")
	}
	if got := c.Peers(); len(got) != 1 || got[0] != "peer-2" {
		t.Errorf("peers after drop = %v", got)
	}
}

func TestCollectorWindowBounded(t *testing.T) {
	c := NewCollector()
	for i := 0; i < collectorWindow*3; i++ {
		if err := c.Absorb(telemetry.Report{Peer: "p", Seq: uint64(i + 1), Delta: telemetry.RegistrySnapshot{Points: []telemetry.PointSnapshot{
			counterPoint("peer_queries_total", 1),
		}}}); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	n := len(c.windows["p"].ring)
	c.mu.Unlock()
	if n != collectorWindow {
		t.Errorf("ring length = %d, want %d", n, collectorWindow)
	}
	h, _ := c.Health("p")
	if h.Reports != uint64(collectorWindow*3) {
		t.Errorf("reports = %d", h.Reports)
	}
}

func TestRenderDashboardEightPeers(t *testing.T) {
	c := NewCollector()
	now := time.Unix(2000, 0)
	c.now = func() time.Time { return now }
	ids := []string{"peer-00", "peer-01", "peer-02", "peer-03", "peer-04", "peer-05", "peer-06", "peer-07"}
	for i, id := range ids {
		lh := latencyHist(float64(i+1)*0.1, 20)
		if err := c.Absorb(telemetry.Report{Peer: id, Seq: 1, Delta: telemetry.RegistrySnapshot{Points: []telemetry.PointSnapshot{
			counterPoint("peer_queries_total", float64(20*(i+1))),
			counterPoint("peer_shuffle_bytes_total", float64(int64(1)<<uint(i+8))),
			{Name: "peer_query_seconds", Kind: "histogram", Value: 20, Hist: &lh},
		}}}); err != nil {
			t.Fatal(err)
		}
	}
	frame := RenderDashboard(c.Healths(), now.Add(3*time.Second))
	lines := strings.Split(strings.TrimRight(frame, "\n"), "\n")
	if len(lines) != 9 { // header + 8 peers
		t.Fatalf("dashboard lines = %d:\n%s", len(lines), frame)
	}
	wantCols := []string{"PEER", "HEALTH", "QPS", "P99", "ERR%", "RPCFAIL", "ROWS", "SHUFFLE", "QWAIT", "SHED%", "AGE"}
	if got := strings.Fields(lines[0]); strings.Join(got, " ") != strings.Join(wantCols, " ") {
		t.Errorf("header columns = %q, want %q", got, wantCols)
	}
	for i, id := range ids {
		if !strings.HasPrefix(lines[i+1], id) {
			t.Errorf("line %d = %q, want peer %s", i+1, lines[i+1], id)
		}
		if got := len(strings.Fields(lines[i+1])); got != len(wantCols) {
			t.Errorf("line %d has %d cells, want %d: %q", i+1, got, len(wantCols), lines[i+1])
		}
	}
	if !strings.Contains(frame, "3s") {
		t.Errorf("frame missing last-report age:\n%s", frame)
	}

	empty := RenderDashboard(nil, now)
	if !strings.Contains(empty, "no peers have reported") {
		t.Errorf("empty frame = %q", empty)
	}
}

// TestTelemetryFailoverDecision drives Algorithm 1 off aggregated
// telemetry alone: the cloud sim says the instance is healthy, but the
// collector's windows show every RPC to the peer failing — the daemon
// must fail it over and attribute the decision to the telemetry signal.
func TestTelemetryFailoverDecision(t *testing.T) {
	b, provider, net := testBootstrap(t)
	joinPeer(t, b, provider, net, "peer-1")
	joinPeer(t, b, provider, net, "peer-2")
	provider.ReportMetrics("peer-1", cloud.Metrics{CPUUtilization: 0.2, Healthy: true})
	provider.ReportMetrics("peer-2", cloud.Metrics{CPUUtilization: 0.2, Healthy: true})

	b.SetFailoverHandler(FailoverFunc(func(failedID string) (string, ed25519.PublicKey, error) {
		newID := failedID + "-v2"
		if _, err := provider.Launch(newID, cloud.M1Small); err != nil {
			return "", nil, err
		}
		ep := net.Join(newID)
		ep.Handle("peer.membership.changed", func(pnet.Message) (pnet.Message, error) { return pnet.Message{}, nil })
		return newID, peerKey(t), nil
	}))

	// Both peers have reported; peer-2's sender side saw 12/12 calls to
	// peer-1 fail.
	if err := b.Collector().Absorb(telemetry.Report{Peer: "peer-1", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Collector().Absorb(telemetry.Report{Peer: "peer-2", Seq: 1, Delta: telemetry.RegistrySnapshot{Points: []telemetry.PointSnapshot{
		counterPoint("peer_rpc_calls_total", 12, telemetry.L("to", "peer-1")),
		counterPoint("peer_rpc_errors_total", 12, telemetry.L("to", "peer-1")),
	}}}); err != nil {
		t.Fatal(err)
	}

	if err := b.RunMaintenanceEpoch(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !b.Online("peer-1-v2") || b.Online("peer-1") {
		t.Fatalf("failover did not happen: online peers = %v", b.Peers())
	}
	var note string
	for _, e := range b.Events() {
		if e.Kind == "failover" && e.Peer == "peer-1" && strings.Contains(e.Note, "telemetry") {
			note = e.Note
		}
	}
	if !strings.Contains(note, "rpc_failure_rate=1.00") {
		t.Errorf("no telemetry-attributed failover event; note = %q", note)
	}
	// The dead identity's window is gone; the replacement starts fresh.
	if _, ok := b.Collector().Health("peer-1"); ok {
		t.Error("failed peer's telemetry window survived failover")
	}
}

// TestTelemetryScaleUpDecision: healthy cloud metrics, but the windowed
// p99 query latency blows the budget — the daemon scales the instance
// up and names the signal.
func TestTelemetryScaleUpDecision(t *testing.T) {
	b, provider, net := testBootstrap(t)
	joinPeer(t, b, provider, net, "peer-1")
	provider.ReportMetrics("peer-1", cloud.Metrics{CPUUtilization: 0.2, Healthy: true})

	lh := latencyHist(3, 50) // p99 ~3s, budget 2s
	if err := b.Collector().Absorb(telemetry.Report{Peer: "peer-1", Seq: 1, Delta: telemetry.RegistrySnapshot{Points: []telemetry.PointSnapshot{
		counterPoint("peer_queries_total", 50),
		{Name: "peer_query_seconds", Kind: "histogram", Value: 50, Hist: &lh},
	}}}); err != nil {
		t.Fatal(err)
	}

	if err := b.RunMaintenanceEpoch(time.Minute); err != nil {
		t.Fatal(err)
	}
	inst, _ := provider.Instance("peer-1")
	if inst.Type.Name != "m1.large" {
		t.Errorf("instance type = %s, want m1.large after telemetry scale-up", inst.Type.Name)
	}
	found := false
	for _, e := range b.Events() {
		if e.Kind == "scaleup" && e.Peer == "peer-1" && strings.Contains(e.Note, "telemetry: p99=") {
			found = true
		}
	}
	if !found {
		t.Errorf("no telemetry-attributed scaleup event: %+v", b.Events())
	}
}

// TestCollectorDedupsRetriedReports: the hardened transport may re-send
// a report whose first delivery landed (retry after a lost reply, or an
// injected duplicate). The collector must absorb each sequence number
// once — double-absorption would double rates and corrupt health
// scores — while still returning success so the reporter advances.
func TestCollectorDedupsRetriedReports(t *testing.T) {
	c := NewCollector()
	rep := telemetry.Report{Peer: "p", Seq: 1, Delta: telemetry.RegistrySnapshot{Points: []telemetry.PointSnapshot{
		counterPoint("peer_queries_total", 10),
		counterPoint("peer_query_errors_total", 10),
	}}}
	for i := 0; i < 3; i++ { // first delivery + two retried duplicates
		if err := c.Absorb(rep); err != nil {
			t.Fatalf("duplicate absorb %d errored (reporter would wedge): %v", i, err)
		}
	}
	h, ok := c.Health("p")
	if !ok {
		t.Fatal("no health window")
	}
	if h.Reports != 1 {
		t.Errorf("reports = %d, want 1 (duplicates absorbed)", h.Reports)
	}
	if h.ErrorRate != 1 {
		t.Errorf("error rate = %v, want 1 (rates must not compound)", h.ErrorRate)
	}

	// A stale re-delivery arriving after newer reports is dropped too.
	if err := c.Absorb(telemetry.Report{Peer: "p", Seq: 2, Delta: telemetry.RegistrySnapshot{Points: []telemetry.PointSnapshot{
		counterPoint("peer_queries_total", 5),
	}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Absorb(rep); err != nil {
		t.Fatal(err)
	}
	if h, _ := c.Health("p"); h.Reports != 2 {
		t.Errorf("reports = %d after stale re-delivery, want 2", h.Reports)
	}

	// Seq 0 (a reporter that never numbers) keeps the old always-absorb
	// behavior.
	c2 := NewCollector()
	for i := 0; i < 2; i++ {
		if err := c2.Absorb(telemetry.Report{Peer: "q", Delta: telemetry.RegistrySnapshot{Points: []telemetry.PointSnapshot{
			counterPoint("peer_queries_total", 1),
		}}}); err != nil {
			t.Fatal(err)
		}
	}
	if h, _ := c2.Health("q"); h.Reports != 2 {
		t.Errorf("unnumbered reports = %d, want 2", h.Reports)
	}
}

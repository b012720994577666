package bootstrap

import (
	"strings"
	"testing"
	"time"

	"bestpeer/internal/pnet"
	"bestpeer/internal/telemetry"
)

// TestEveryBootstrapMetricHasHelp exercises the bootstrap enough to
// create its core metric families — a report through the RPC handler,
// a maintenance epoch, the peers-online gauge — then fails if any
// bootstrap_* family renders without a # HELP line. (Event-driven
// counters like failovers are created lazily; their help text is
// registered at init, so they pass the moment they first fire.)
func TestEveryBootstrapMetricHasHelp(t *testing.T) {
	b, provider, net := testBootstrap(t)
	joinPeer(t, b, provider, net, "help-peer")
	if _, err := b.handleTelemetryReport(pnet.Message{Payload: telemetry.Report{
		Peer: "help-peer", Seq: 1,
		Delta: telemetry.RegistrySnapshot{Points: []telemetry.PointSnapshot{counterPoint("peer_queries_total", 1)}},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := b.RunMaintenanceEpoch(time.Second); err != nil {
		t.Fatal(err)
	}

	for _, family := range telemetry.MissingHelp(telemetry.Default.Text()) {
		if strings.HasPrefix(family, "bootstrap_") {
			t.Errorf("bootstrap family %q has no HELP text", family)
		}
	}
}

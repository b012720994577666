package bootstrap

import (
	"strings"
	"testing"

	"bestpeer/internal/telemetry"
)

// heatPoint builds a heatmap delta point with the given bucket counts.
func heatPoint(buckets ...int64) telemetry.PointSnapshot {
	hs := telemetry.HeatmapSnapshot{Buckets: buckets}
	return telemetry.PointSnapshot{Name: "peer_key_heat", Kind: "heatmap", Value: float64(hs.Count()), Heat: &hs}
}

// skewed returns an n-bucket heat vector with `hot` hits in bucket 0
// and one hit everywhere else.
func skewed(n int, hot int64) []int64 {
	out := make([]int64, n)
	out[0] = hot
	for i := 1; i < n; i++ {
		out[i] = 1
	}
	return out
}

func TestCollectorAbsorbsHeatIntoHealth(t *testing.T) {
	c := NewCollector()
	// peer-1 hammers bucket 0; peer-2 sees flat traffic.
	if err := c.Absorb(telemetry.Report{Peer: "peer-1", Seq: 1, Delta: telemetry.RegistrySnapshot{
		Points: []telemetry.PointSnapshot{heatPoint(skewed(8, 93)...)}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Absorb(telemetry.Report{Peer: "peer-2", Seq: 1, Delta: telemetry.RegistrySnapshot{
		Points: []telemetry.PointSnapshot{heatPoint(1, 1, 1, 1, 1, 1, 1, 1)}}}); err != nil {
		t.Fatal(err)
	}

	h, ok := c.Health("peer-1")
	if !ok {
		t.Fatal("no health for peer-1")
	}
	if h.HeatSamples != 100 {
		t.Errorf("heat samples = %d, want 100", h.HeatSamples)
	}
	if h.HotBucket != 0 || h.HeatShare != 0.93 {
		t.Errorf("hot bucket = %d share = %v, want bucket 0 at 0.93", h.HotBucket, h.HeatShare)
	}
	if want := 0.93 * 8; h.HeatSkew != want {
		t.Errorf("heat skew = %v, want %v", h.HeatSkew, want)
	}
	h2, _ := c.Health("peer-2")
	if h2.HeatSkew != 1 {
		t.Errorf("uniform peer skew = %v, want 1", h2.HeatSkew)
	}

	// Cluster heat is the bucket-wise sum over every peer's window.
	cluster := c.ClusterHeat()
	if cluster.Count() != 108 {
		t.Errorf("cluster heat count = %d, want 108", cluster.Count())
	}
	if cluster.Buckets[0] != 94 {
		t.Errorf("cluster bucket 0 = %d, want 94", cluster.Buckets[0])
	}
}

func TestHotRangesDetectionAndAttribution(t *testing.T) {
	c := NewCollector()
	if err := c.Absorb(telemetry.Report{Peer: "peer-1", Seq: 1, Delta: telemetry.RegistrySnapshot{
		Points: []telemetry.PointSnapshot{heatPoint(skewed(8, 93)...)}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Absorb(telemetry.Report{Peer: "peer-2", Seq: 1, Delta: telemetry.RegistrySnapshot{
		Points: []telemetry.PointSnapshot{heatPoint(10, 1, 1, 1, 1, 1, 1, 1)}}}); err != nil {
		t.Fatal(err)
	}

	// Below the sample floor: no ranges regardless of skew.
	if got := c.HotRanges(2, 1000); got != nil {
		t.Fatalf("ranges below sample floor: %v", got)
	}

	ranges := c.HotRanges(2, 64)
	if len(ranges) != 1 {
		t.Fatalf("ranges = %+v, want exactly bucket 0", ranges)
	}
	r := ranges[0]
	if r.Bucket != 0 || r.Lo != 0 || r.Hi != 0.125 {
		t.Errorf("range = %+v, want bucket 0 over [0,0.125)", r)
	}
	if r.Samples != 103 {
		t.Errorf("samples = %d, want 103", r.Samples)
	}
	if r.TopPeer != "peer-1" {
		t.Errorf("top peer = %q, want peer-1 (93 of 103 hits)", r.TopPeer)
	}
	// Uniform traffic clears no threshold.
	if got := c.HotRanges(50, 64); got != nil {
		t.Fatalf("ranges above any real skew: %v", got)
	}
}

// TestHotspotEventsRisingEdge pins the dedup contract: a range logs on
// its rising edge, stays silent while it remains hot, and logs again
// after cooling below the threshold and re-heating.
func TestHotspotEventsRisingEdge(t *testing.T) {
	b, _, _ := testBootstrap(t)

	hotspotEvents := func() int {
		n := 0
		for _, e := range b.Events() {
			if e.Kind == "hotspot" {
				n++
			}
		}
		return n
	}

	// Everything in bucket 0: skew 8.0 on an 8-bucket vector, at the
	// default HeatSkewHigh threshold.
	hotReport := func(seq uint64) telemetry.Report {
		return telemetry.Report{Peer: "peer-1", Seq: seq, Delta: telemetry.RegistrySnapshot{
			Points: []telemetry.PointSnapshot{heatPoint(1000, 0, 0, 0, 0, 0, 0, 0)}}}
	}

	if err := b.collector.Absorb(hotReport(1)); err != nil {
		t.Fatal(err)
	}
	b.detectHotspots()
	if got := hotspotEvents(); got != 1 {
		t.Fatalf("events after first detection = %d, want 1", got)
	}
	// Still hot next epoch: no re-log.
	b.detectHotspots()
	if got := hotspotEvents(); got != 1 {
		t.Fatalf("events while continuously hot = %d, want still 1", got)
	}
	var e Event
	for _, ev := range b.Events() {
		if ev.Kind == "hotspot" {
			e = ev
		}
	}
	if e.Peer != "peer-1" || !strings.Contains(e.Note, "[0.000,0.125)") || !strings.Contains(e.Note, "top=peer-1") {
		t.Errorf("hotspot event = %+v", e)
	}

	// Cool down: flood the window ring with uniform reports until the
	// skew drops below threshold, then re-heat — it must log again.
	for i := 0; i < collectorWindow; i++ {
		if err := b.collector.Absorb(telemetry.Report{Peer: "peer-1", Seq: uint64(2 + i), Delta: telemetry.RegistrySnapshot{
			Points: []telemetry.PointSnapshot{heatPoint(100, 100, 100, 100, 100, 100, 100, 100)}}}); err != nil {
			t.Fatal(err)
		}
	}
	b.detectHotspots()
	if got := hotspotEvents(); got != 1 {
		t.Fatalf("events after cool-down = %d, want still 1", got)
	}
	if err := b.collector.Absorb(hotReport(uint64(2 + collectorWindow))); err != nil {
		t.Fatal(err)
	}
	// One skewed report on top of the uniform window is not enough; push
	// the ring back to fully hot.
	for i := 0; i < collectorWindow; i++ {
		if err := b.collector.Absorb(hotReport(uint64(3 + collectorWindow + i))); err != nil {
			t.Fatal(err)
		}
	}
	b.detectHotspots()
	if got := hotspotEvents(); got != 2 {
		t.Fatalf("events after re-heat = %d, want 2", got)
	}
}

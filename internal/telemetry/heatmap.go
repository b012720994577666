package telemetry

import (
	"fmt"
	"sync/atomic"
)

// Heatmap is the heat plane's accounting primitive: a fixed array of N
// counters over the BATON key space [0,1). Recording an access at a key
// is one atomic add into the bucket owning that key — no per-key labels,
// no allocation, bounded memory whatever the key distribution — yet a
// merged cluster heat vector still names WHERE traffic lands precisely
// enough to call a range hot. Like Histogram, a Heatmap snapshots,
// deltas and merges losslessly (bucket-wise addition over identical
// layouts), so per-peer heat vectors ride the existing telemetry report
// path and sum at the collector.

// DefaultHeatBuckets is the standard key-space resolution. 64 buckets
// over [0,1) resolve a hot range to ~1.6% of the key space while one
// heat vector stays a 512-byte array.
const DefaultHeatBuckets = 64

// Heatmap holds the live per-bucket counters.
type Heatmap struct {
	buckets []atomic.Int64
	total   atomic.Int64
}

// NewHeatmap returns a heatmap with n buckets over [0,1) (n <= 0
// selects DefaultHeatBuckets).
func NewHeatmap(n int) *Heatmap {
	if n <= 0 {
		n = DefaultHeatBuckets
	}
	return &Heatmap{buckets: make([]atomic.Int64, n)}
}

// Buckets returns the bucket count.
func (h *Heatmap) Buckets() int {
	if h == nil {
		return 0
	}
	return len(h.buckets)
}

// bucketOf clamps a key into [0,1) and returns its bucket index.
func (h *Heatmap) bucketOf(key float64) int {
	i := int(key * float64(len(h.buckets)))
	if i < 0 || key != key { // negative key or NaN
		return 0
	}
	if i >= len(h.buckets) {
		return len(h.buckets) - 1
	}
	return i
}

// Record counts one access at key.
func (h *Heatmap) Record(key float64) {
	if h == nil {
		return
	}
	h.buckets[h.bucketOf(key)].Add(1)
	h.total.Add(1)
}

// RecordRange counts one access against every bucket the key range
// [lo,hi] overlaps. A point access (hi <= lo) touches one bucket; a
// full-space scan touches all of them — so wide uniform scans spread
// flat while narrow repeated windows concentrate, which is exactly the
// contrast the skew score keys on.
func (h *Heatmap) RecordRange(lo, hi float64) {
	if h == nil {
		return
	}
	i := h.bucketOf(lo)
	j := h.bucketOf(hi)
	if j < i {
		i, j = j, i
	}
	for b := i; b <= j; b++ {
		h.buckets[b].Add(1)
	}
	h.total.Add(int64(j - i + 1))
}

// Count returns the total bucket increments recorded.
func (h *Heatmap) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// BucketCounts returns a copy of the per-bucket counters.
func (h *Heatmap) BucketCounts() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Snapshot freezes the heatmap's current state.
func (h *Heatmap) Snapshot() HeatmapSnapshot {
	if h == nil {
		return HeatmapSnapshot{}
	}
	return HeatmapSnapshot{Buckets: h.BucketCounts()}
}

// Merge adds a snapshot's buckets into the live heatmap. Like
// Histogram.Merge, mismatched layouts are refused rather than
// approximated, and negative counts (a corrupt or non-delta snapshot)
// are rejected before any bucket is touched.
func (h *Heatmap) Merge(s HeatmapSnapshot) error {
	if h == nil {
		return fmt.Errorf("telemetry: merge into nil heatmap")
	}
	if len(s.Buckets) != len(h.buckets) {
		return fmt.Errorf("telemetry: heatmap merge: %d buckets vs %d", len(s.Buckets), len(h.buckets))
	}
	for _, c := range s.Buckets {
		if c < 0 {
			return fmt.Errorf("telemetry: heatmap merge: negative bucket count %d", c)
		}
	}
	var total int64
	for i, c := range s.Buckets {
		h.buckets[i].Add(c)
		total += c
	}
	h.total.Add(total)
	return nil
}

// HeatBucketRange returns the key-space range [lo,hi) bucket i covers
// in an n-bucket heatmap.
func HeatBucketRange(i, n int) (lo, hi float64) {
	if n <= 0 {
		return 0, 0
	}
	return float64(i) / float64(n), float64(i+1) / float64(n)
}

// HeatmapSnapshot is a frozen, serializable heat vector. Exported
// fields only, so it crosses pnet's gob transport unchanged inside
// telemetry reports.
type HeatmapSnapshot struct {
	Buckets []int64
}

// Count returns the total increments in the snapshot.
func (s HeatmapSnapshot) Count() int64 {
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	return total
}

// Sub returns s minus prev bucket-wise — the delta of two snapshots of
// the same heatmap. A layout mismatch or a counter that went backwards
// (the heatmap was replaced underneath) falls back to the absolute
// snapshot s, mirroring HistogramSnapshot.Sub.
func (s HeatmapSnapshot) Sub(prev HeatmapSnapshot) HeatmapSnapshot {
	out := HeatmapSnapshot{Buckets: append([]int64(nil), s.Buckets...)}
	if len(prev.Buckets) != len(s.Buckets) {
		return out
	}
	for i := range out.Buckets {
		out.Buckets[i] -= prev.Buckets[i]
		if out.Buckets[i] < 0 {
			copy(out.Buckets, s.Buckets)
			return out
		}
	}
	return out
}

// Add returns the bucket-wise sum (empty operands pass through; a
// layout mismatch keeps the receiver) — the collector's accumulator.
func (s HeatmapSnapshot) Add(d HeatmapSnapshot) HeatmapSnapshot {
	if len(d.Buckets) == 0 {
		return s
	}
	if len(s.Buckets) == 0 {
		return HeatmapSnapshot{Buckets: append([]int64(nil), d.Buckets...)}
	}
	if len(s.Buckets) != len(d.Buckets) {
		return s
	}
	out := HeatmapSnapshot{Buckets: append([]int64(nil), s.Buckets...)}
	for i := range d.Buckets {
		out.Buckets[i] += d.Buckets[i]
	}
	return out
}

// Top returns the hottest bucket's index and its share of all
// increments (0, 0 when the snapshot is empty).
func (s HeatmapSnapshot) Top() (bucket int, share float64) {
	total := s.Count()
	if total == 0 {
		return 0, 0
	}
	var max int64
	for i, c := range s.Buckets {
		if c > max {
			max = c
			bucket = i
		}
	}
	return bucket, float64(max) / float64(total)
}

// Skew scores the distribution against uniform expectation: the top
// bucket's share divided by 1/N. 1.0 means perfectly flat traffic; N
// means every access landed in one bucket. Empty snapshots score 0.
func (s HeatmapSnapshot) Skew() float64 {
	if len(s.Buckets) == 0 {
		return 0
	}
	_, share := s.Top()
	return share * float64(len(s.Buckets))
}

package telemetry

import (
	"fmt"
	"math"
	"sort"
)

// Snapshot/delta encoding: the serializable view of a registry. A peer
// exports its registry, subtracts the previous export to get a compact
// delta, and ships the delta to the bootstrap (telemetry.report verb);
// the bootstrap merges each report into a cluster registry. Every type
// here is exported-fields-only so it crosses pnet's gob transport
// unchanged. Merging is lossless at bucket resolution: histograms with
// identical bounds add bucket-wise, so quantiles of a merged cluster
// histogram equal quantiles of one histogram fed the union of the
// shards' observations.

// HistogramSnapshot is a frozen, serializable histogram: bucket bounds,
// per-bucket counts (last entry is the implicit +Inf overflow bucket),
// and the running sum.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64 // len(Bounds)+1; last is the +Inf bucket
	Sum    float64
}

// Snapshot freezes the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Bounds: h.Bounds(),
		Counts: h.BucketCounts(),
		Sum:    h.Sum(),
	}
}

// Merge adds a snapshot's buckets into the live histogram. The bounds
// must match exactly — merging histograms with different bucket layouts
// cannot be lossless, so it is refused rather than approximated.
func (h *Histogram) Merge(s HistogramSnapshot) error {
	if h == nil {
		return fmt.Errorf("telemetry: merge into nil histogram")
	}
	if err := boundsMatch(h.bounds, s.Bounds, s.Counts); err != nil {
		return err
	}
	var total int64
	for i, c := range s.Counts {
		if c < 0 {
			return fmt.Errorf("telemetry: merge: negative bucket count %d", c)
		}
		h.counts[i].Add(c)
		total += c
	}
	h.count.Add(total)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + s.Sum)
		if h.sum.CompareAndSwap(old, next) {
			return nil
		}
	}
}

func boundsMatch(bounds, other []float64, counts []int64) error {
	if len(other) != len(bounds) {
		return fmt.Errorf("telemetry: merge: %d bounds vs %d", len(other), len(bounds))
	}
	for i, b := range bounds {
		if other[i] != b {
			return fmt.Errorf("telemetry: merge: bound[%d]=%g vs %g", i, other[i], b)
		}
	}
	if len(counts) != len(bounds)+1 {
		return fmt.Errorf("telemetry: merge: %d counts for %d bounds", len(counts), len(bounds))
	}
	return nil
}

// Count returns the total observations in the snapshot.
func (s HistogramSnapshot) Count() int64 {
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	return total
}

// Quantile estimates the q-quantile of the frozen distribution with the
// same estimator as the live Histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 || q <= 0 || q >= 1 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range s.Counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i == len(s.Counts)-1 {
			return s.Bounds[len(s.Bounds)-1] // overflow bucket: clamp
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(cum))/float64(c)
	}
	return math.NaN()
}

// Sub returns s minus prev bucket-wise — the delta of two snapshots of
// the same histogram. Mismatched bounds or a counter that went backwards
// (the histogram was replaced underneath) fall back to the absolute
// snapshot s.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if boundsMatch(s.Bounds, prev.Bounds, prev.Counts) != nil {
		return HistogramSnapshot{
			Bounds: append([]float64(nil), s.Bounds...),
			Counts: append([]int64(nil), s.Counts...),
			Sum:    s.Sum,
		}
	}
	out := HistogramSnapshot{
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: make([]int64, len(s.Counts)),
		Sum:    s.Sum - prev.Sum,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] - prev.Counts[i]
		if out.Counts[i] < 0 { // bounds changed underneath: fall back to absolute
			copy(out.Counts, s.Counts)
			out.Sum = s.Sum
			break
		}
	}
	return out
}

// PointSnapshot is one serialized metric sample.
type PointSnapshot struct {
	Name   string
	Labels []Label
	Kind   string // "counter", "gauge", "histogram"
	Value  float64
	Hist   *HistogramSnapshot // set for histograms
}

// key is the dedup/delta identity of a point.
func (p PointSnapshot) key() string { return p.Name + "\x00" + signature(p.Labels) }

// RegistrySnapshot is a full serializable dump of a registry, sorted by
// name then label signature.
type RegistrySnapshot struct {
	Points []PointSnapshot
}

// Export freezes every metric into a serializable snapshot — the wire
// twin of Snapshot(), which returns live handles.
func (r *Registry) Export() RegistrySnapshot {
	pts := r.Snapshot()
	out := RegistrySnapshot{Points: make([]PointSnapshot, 0, len(pts))}
	for _, p := range pts {
		ps := PointSnapshot{
			Name:   p.Name,
			Labels: append([]Label(nil), p.Labels...),
			Kind:   p.Kind,
			Value:  p.Value,
		}
		if p.Hist != nil {
			hs := p.Hist.Snapshot()
			ps.Hist = &hs
		}
		out.Points = append(out.Points, ps)
	}
	return out
}

// Delta returns the change from prev to s: counters and histograms are
// subtracted point-wise (a point absent from prev counts from zero),
// gauges pass through absolutely, and points with no activity since
// prev are dropped. Shipping deltas keeps the per-epoch report
// proportional to recent activity, not registry size.
func (s RegistrySnapshot) Delta(prev RegistrySnapshot) RegistrySnapshot {
	old := make(map[string]PointSnapshot, len(prev.Points))
	for _, p := range prev.Points {
		old[p.key()] = p
	}
	var out RegistrySnapshot
	for _, p := range s.Points {
		q, had := old[p.key()]
		switch p.Kind {
		case "counter":
			v := p.Value
			if had {
				v -= q.Value
			}
			if v <= 0 {
				continue
			}
			p.Value = v
		case "gauge":
			if had && p.Value == q.Value {
				continue
			}
		case "histogram":
			if p.Hist == nil {
				continue
			}
			h := *p.Hist
			if had && q.Hist != nil && boundsMatch(h.Bounds, q.Hist.Bounds, q.Hist.Counts) == nil {
				h = h.Sub(*q.Hist)
			}
			if h.Count() == 0 {
				continue
			}
			p.Hist = &h
			p.Value = float64(h.Count())
		}
		out.Points = append(out.Points, p)
	}
	return out
}

// Merge absorbs a snapshot into the registry, adding extra labels to
// every point (the collector adds peer=<reporter> so disjoint per-peer
// registries merge without collisions). Counters add, gauges overwrite,
// histograms merge bucket-wise; a histogram whose bounds conflict with
// an existing family child is skipped and reported in the error.
func (r *Registry) Merge(s RegistrySnapshot, extra ...Label) error {
	var firstErr error
	for _, p := range s.Points {
		labels := p.Labels
		if len(extra) > 0 {
			labels = append(append([]Label(nil), p.Labels...), extra...)
		}
		switch p.Kind {
		case "counter":
			c := r.Counter(p.Name, labels...)
			c.v.Add(int64(p.Value))
		case "gauge":
			r.Gauge(p.Name, labels...).v.Store(int64(p.Value))
		case "histogram":
			if p.Hist == nil {
				continue
			}
			h := r.Histogram(p.Name, p.Hist.Bounds, labels...)
			if err := h.Merge(*p.Hist); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", p.Name, err)
			}
		}
	}
	return firstErr
}

// Find returns the first point matching name and every given label, or
// false. Convenience for collectors and tests reading merged state.
func (s RegistrySnapshot) Find(name string, labels ...Label) (PointSnapshot, bool) {
	for _, p := range s.Points {
		if p.Name != name {
			continue
		}
		ok := true
		for _, want := range labels {
			found := false
			for _, l := range p.Labels {
				if l == want {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			return p, true
		}
	}
	return PointSnapshot{}, false
}

// Sort orders points by name then label signature (Export already
// returns sorted points; use after building snapshots by hand).
func (s *RegistrySnapshot) Sort() {
	sort.Slice(s.Points, func(i, j int) bool {
		if s.Points[i].Name != s.Points[j].Name {
			return s.Points[i].Name < s.Points[j].Name
		}
		return signature(s.Points[i].Labels) < signature(s.Points[j].Labels)
	})
}

// Report is one peer's telemetry push to the bootstrap: a delta since
// the previous report (Seq orders reports from one peer). It is the
// payload of the telemetry.report verb; gob registration lives in the
// peer package because telemetry sits below pnet.
type Report struct {
	Peer  string
	Seq   uint64
	Delta RegistrySnapshot
}

package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket streaming histogram. Observations are two
// atomic adds (bucket + count) and one atomic float accumulation; no
// allocation, no locks, safe from any number of goroutines. Quantiles
// are estimated by linear interpolation inside the bucket containing
// the target rank — the standard Prometheus-style estimator, accurate
// to the bucket resolution.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	// exemplars holds the latest traced observation per bucket
	// (ObserveExemplar): a p99 overrun read off the tail buckets links
	// straight to a replayable trace ID. Latest-wins per bucket, so the
	// memory cost is one pointer per bucket regardless of traffic.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar is one traced observation attached to a histogram bucket —
// the bridge from an aggregate latency tail to the concrete trace that
// produced it.
type Exemplar struct {
	Value   float64
	TraceID uint64
}

// DurationBuckets returns the default latency bounds in seconds:
// 10µs … 10s, roughly exponential. In-process peer calls sit in the
// lowest buckets; TCP-remote calls and MR jobs span the rest.
func DurationBuckets() []float64 {
	return []float64{
		10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
		250e-3, 500e-3, 1, 2.5, 5, 10,
	}
}

// SizeBuckets returns bounds for byte volumes: 64B … 256MB.
func SizeBuckets() []float64 {
	return []float64{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10,
		256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20}
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets()
	}
	bs := append([]float64(nil), bounds...)
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds:    bs,
		counts:    make([]atomic.Int64, len(bs)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bs)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.ObserveExemplar(v, 0)
}

// ObserveExemplar records one value and, when traceID is non-zero,
// stamps the observation's bucket with a {value, trace ID} exemplar
// (latest observation wins). Tail buckets thus always carry the most
// recent slow trace: reading the highest populated exemplar answers
// "show me a query that actually paid that p99".
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	if traceID != 0 {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID})
	}
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 {
	return append([]float64(nil), h.bounds...)
}

// BucketCounts returns the per-bucket observation counts; the last
// entry is the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Exemplars returns the per-bucket exemplars (nil entries for buckets
// that never saw a traced observation; the last entry is the +Inf
// bucket's).
func (h *Histogram) Exemplars() []*Exemplar {
	if h == nil {
		return nil
	}
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// TailExemplar returns the exemplar of the highest bucket holding one —
// the slowest traced observation class — and false when no traced
// observation was ever recorded.
func (h *Histogram) TailExemplar() (Exemplar, bool) {
	if h == nil {
		return Exemplar{}, false
	}
	for i := len(h.exemplars) - 1; i >= 0; i-- {
		if e := h.exemplars[i].Load(); e != nil {
			return *e, true
		}
	}
	return Exemplar{}, false
}

// Quantile estimates the q-quantile (0 < q < 1) of the observed
// distribution by interpolating inside the bucket holding the target
// rank. With no observations it returns NaN; ranks landing in the +Inf
// bucket clamp to the highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	counts := h.BucketCounts()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || q <= 0 || q >= 1 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i == len(counts)-1 {
			return h.bounds[len(h.bounds)-1] // overflow bucket: clamp
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(cum))/float64(c)
	}
	return math.NaN()
}

// Quantiles returns the standard p50/p95/p99 triple.
func (h *Histogram) Quantiles() (p50, p95, p99 float64) {
	return h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
}

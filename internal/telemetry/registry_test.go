package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentHammer drives counters, gauges, histograms, registry
// lookups, and exposition from many goroutines at once; run under
// -race this is the registry's thread-safety proof, and the final
// counts pin that no increment was lost.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 2000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctr := r.Counter("hammer_total", L("shard", "shared"))
			gauge := r.Gauge("hammer_inflight")
			hist := r.Histogram("hammer_seconds", nil)
			for i := 0; i < perG; i++ {
				ctr.Inc()
				gauge.Add(1)
				hist.Observe(float64(i%100) / 1000)
				gauge.Add(-1)
				// Lookup churn: a per-goroutine labeled child.
				if i%100 == 0 {
					r.Counter("hammer_total", L("shard", string(rune('a'+g)))).Inc()
				}
				if i%500 == 0 {
					var sb strings.Builder
					if err := r.WriteText(&sb); err != nil {
						t.Errorf("WriteText: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if got := r.Counter("hammer_total", L("shard", "shared")).Value(); got != goroutines*perG {
		t.Errorf("shared counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("hammer_inflight").Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := r.Histogram("hammer_seconds", nil).Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestQuantileAccuracy checks the histogram estimator against a
// reference sort: the estimate must land within one bucket width of
// the exact quantile.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := newHistogram(DurationBuckets())
	const n = 20000
	values := make([]float64, n)
	for i := range values {
		// Log-uniform over [100µs, 1s): spans several buckets.
		v := math.Exp(rng.Float64()*math.Log(1e4)) * 100e-6
		values[i] = v
		h.Observe(v)
	}
	sort.Float64s(values)

	bucketOf := func(v float64) (lo, hi float64) {
		lo = 0
		for _, b := range DurationBuckets() {
			if v <= b {
				return lo, b
			}
			lo = b
		}
		return lo, math.Inf(1)
	}
	for _, q := range []float64{0.50, 0.95, 0.99} {
		exact := values[int(q*float64(n))-1]
		est := h.Quantile(q)
		lo, hi := bucketOf(exact)
		if est < lo || est > hi {
			t.Errorf("p%.0f estimate %g outside exact value's bucket [%g, %g] (exact %g)",
				q*100, est, lo, hi, exact)
		}
	}

	if !math.IsNaN(newHistogram(nil).Quantile(0.5)) {
		t.Errorf("empty histogram quantile should be NaN")
	}
}

func TestHistogramSumAndOverflow(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	for _, v := range []float64{0.5, 1.5, 99} {
		h.Observe(v)
	}
	if got := h.Sum(); math.Abs(got-101) > 1e-9 {
		t.Errorf("sum = %g, want 101", got)
	}
	if got := h.BucketCounts(); got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Errorf("bucket counts = %v", got)
	}
	// Overflow-bucket quantile clamps to the highest finite bound.
	if got := h.Quantile(0.99); got != 2 {
		t.Errorf("overflow quantile = %g, want 2", got)
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("pnet_calls_total", L("peer", "peer-01")).Add(3)
	r.SetHelp("pnet_calls_total", "messages delivered per destination")
	r.Gauge("pool_active").Set(2)
	h := r.Histogram("lat_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	text := r.Text()
	for _, want := range []string{
		"# HELP pnet_calls_total messages delivered per destination",
		"# TYPE pnet_calls_total counter",
		`pnet_calls_total{peer="peer-01"} 3`,
		"# TYPE pool_active gauge",
		"pool_active 2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 5.55",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	// Families must be sorted.
	if strings.Index(text, "lat_seconds") > strings.Index(text, "pnet_calls_total") {
		t.Errorf("families not sorted:\n%s", text)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", L("q", `a"b\c`+"\n")).Inc()
	if want := `esc_total{q="a\"b\\c\n"} 1`; !strings.Contains(r.Text(), want) {
		t.Errorf("escaping: want %q in:\n%s", want, r.Text())
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Errorf("nil handles recorded something")
	}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Errorf("nil histogram quantile should be NaN")
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", L("x", "1")).Add(2)
	r.Gauge("b").Set(7)
	r.Histogram("c_seconds", nil).Observe(0.01)
	pts := r.Snapshot()
	if len(pts) != 3 {
		t.Fatalf("snapshot has %d points, want 3", len(pts))
	}
	if pts[0].Name != "a_total" || pts[0].Value != 2 || pts[0].Kind != "counter" {
		t.Errorf("point 0 = %+v", pts[0])
	}
	if pts[2].Hist == nil || pts[2].Hist.Count() != 1 {
		t.Errorf("histogram point missing Hist handle: %+v", pts[2])
	}
}

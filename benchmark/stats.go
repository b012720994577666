package main

import (
	"math"
	"sort"
	"time"
)

// sample is one timed operation: when it started, relative to the
// window's start, and how long the caller waited for it.
type sample struct {
	at  time.Duration
	lat time.Duration
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the q-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func maxOf(vals []float64) float64 {
	var m float64
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}

// windowSlices is how many equal parts a measured window is cut into.
const windowSlices = 10

// sliceQuantiles cuts [0, window) into windowSlices equal parts and
// returns the q-quantile of the latencies (ms) of the samples that
// started in each part, with the parts' sample counts. Empty parts are
// left out of both.
func sliceQuantiles(samples []sample, window time.Duration, q float64) (qs []float64, counts []int) {
	if window <= 0 {
		return nil, nil
	}
	parts := make([][]float64, windowSlices)
	for _, s := range samples {
		i := int(int64(s.at) * windowSlices / int64(window))
		if i < 0 || i >= windowSlices {
			continue
		}
		parts[i] = append(parts[i], ms(s.lat))
	}
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		sort.Float64s(p)
		qs = append(qs, percentile(p, q))
		counts = append(counts, len(p))
	}
	return qs, counts
}

// sliceLatency is the timing rule of every latency metric: the window
// is cut into windowSlices parts, each part's q-quantile is taken, the
// lowest and the highest part are dropped and the rest averaged. One
// stall from a noisy neighbour then owns one dropped slice, not the
// number. It is a trimmed mean and not a median because the process
// alternates between two regimes every second or two (collector
// marking or not): the slices then fall into two groups of about equal
// size, their median jumps from one group to the other between runs,
// and their mean does not.
func sliceLatency(samples []sample, window time.Duration, q float64) float64 {
	qs, _ := sliceQuantiles(samples, window, q)
	sort.Float64s(qs)
	if len(qs) > 2 {
		qs = qs[1 : len(qs)-1]
	}
	return mean(qs)
}

// tailPercentiles are the candidates for the whole-window tail metric,
// as exact fractions so the ten-samples-beyond rule has no rounding.
var tailPercentiles = []struct{ num, den int }{
	{50, 100}, {75, 100}, {90, 100}, {95, 100}, {99, 100}, {999, 1000}, {9999, 10000},
}

// supportedTail returns the highest candidate percentile that still has
// at least ten of the n samples beyond it (0.50 when none has).
func supportedTail(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if n*(p.den-p.num) >= 10*p.den {
			best = p
		}
	}
	return float64(best.num) / float64(best.den)
}

// lateness is how long after its due time an open-loop event started;
// an event that starts early is on time.
func lateness(due, started time.Time) time.Duration {
	if d := started.Sub(due); d > 0 {
		return d
	}
	return 0
}

package tpch

import (
	"fmt"
	"math/rand"

	"bestpeer/internal/sqlval"
)

// Shipdate-window workload generator: parameterized range scans over
// l_shipdate whose window placement is either uniform over the date
// domain or Zipfian-concentrated at its start.

// ShipdateWindowQuery renders a count over the ship-date window
// [fromDay, toDay) in day ordinals.
func ShipdateWindowQuery(fromDay, toDay int64) string {
	return fmt.Sprintf(
		"SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= DATE '%s' AND l_shipdate < DATE '%s'",
		sqlval.Date(fromDay).String(), sqlval.Date(toDay).String())
}

// ShipdateWorkload deals shipdate-window queries with either uniform or
// Zipfian window placement.
type ShipdateWorkload struct {
	rng        *rand.Rand
	zipf       *rand.Zipf
	windowDays int64
	span       int64 // number of possible window starts - 1
}

// NewShipdateWorkload builds a generator. With zipfian set, window
// start offsets follow P(k) ∝ (1+k)^-1.5 from the domain's first day,
// so most of the mass lands within the first few weeks. Otherwise
// starts are uniform over the whole domain.
func NewShipdateWorkload(seed int64, zipfian bool, windowDays int) *ShipdateWorkload {
	if windowDays < 1 {
		windowDays = 7
	}
	w := &ShipdateWorkload{
		rng:        rand.New(rand.NewSource(seed)),
		windowDays: int64(windowDays),
		span:       endDay - startDay - int64(windowDays),
	}
	if w.span < 0 {
		w.span = 0
	}
	if zipfian {
		w.zipf = rand.NewZipf(w.rng, 1.5, 1, uint64(w.span))
	}
	return w
}

// Next returns the next window-scan query.
func (w *ShipdateWorkload) Next() string {
	var off int64
	if w.zipf != nil {
		off = int64(w.zipf.Uint64())
	} else if w.span > 0 {
		off = w.rng.Int63n(w.span + 1)
	}
	from := startDay + off
	return ShipdateWindowQuery(from, from+w.windowDays)
}

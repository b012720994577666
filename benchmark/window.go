package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"bestpeer/internal/pnet"
	"bestpeer/internal/serving"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/telemetry"
)

// checkEvery is the oracle sampling stride: every 50th op of every
// client keeps its result for comparison after the window.
const checkEvery = 50

// checked is one sampled operation awaiting the oracle.
type checked struct {
	sql string
	res *sqldb.Result
}

// clientRun is what one closed-loop client saw during a window.
type clientRun struct {
	samples   []sample // successful ops only
	attempted int
	errors    int // transport or handler errors
	shed      int // ErrOverloaded rejections
	hits      [numClasses]int
	misses    [numClasses]int // cacheable ops that executed
	checks    []checked
	firstErr  error
}

// windowRun is one window: the clients, the ingest rounds beside them,
// and the counter deltas across it.
type windowRun struct {
	length   time.Duration // start to the last client finishing
	clients  []clientRun
	rounds   []roundTiming
	counters map[string]float64 // telemetry.Default counter deltas, summed per family
	mem      runtime.MemStats   // deltas of the cumulative fields
}

// counterSums reads every counter family of the process-wide registry,
// summed over its label sets.
func counterSums() map[string]float64 {
	out := make(map[string]float64)
	for _, p := range telemetry.Default.Snapshot() {
		if p.Kind == "counter" {
			out[p.Name] += p.Value
		}
	}
	return out
}

// runWindow drives every session closed-loop from its generator for
// dur, with the ingest schedule running beside them when ingest is set.
// While it runs the harness does nothing but Client.Query and timing.
func runWindow(c *cluster, cfg config, gens []*generator, dur time.Duration, ingest bool) (*windowRun, error) {
	w := &windowRun{clients: make([]clientRun, len(gens))}
	for i := range w.clients {
		w.clients[i].samples = make([]sample, 0, 1<<18) // dashboard_cached deals ~220k ops per client
	}
	before := counterSums()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			driveClient(c.sessions[i], gens[i], &w.clients[i], start, end)
		}(i)
	}
	var ingestErr error
	if ingest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.rounds, ingestErr = c.ingest.schedule(start, end, cfg.ingestEvery, cfg.mutations)
		}()
	}
	wg.Wait()
	w.length = time.Since(start)

	runtime.ReadMemStats(&m1)
	w.mem.Mallocs = m1.Mallocs - m0.Mallocs
	w.mem.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
	w.mem.PauseTotalNs = m1.PauseTotalNs - m0.PauseTotalNs
	w.mem.NumGC = m1.NumGC - m0.NumGC
	w.counters = counterSums()
	for k, v := range before {
		w.counters[k] -= v
	}
	if ingestErr != nil {
		return w, fmt.Errorf("ingest: %w", ingestErr)
	}
	return w, nil
}

func driveClient(cl *serving.Client, g *generator, r *clientRun, start, end time.Time) {
	for n := 0; ; n++ {
		if !time.Now().Before(end) {
			return
		}
		o := g.next()
		t0 := time.Now()
		out, err := cl.Query(o.sql, o.mode)
		lat := time.Since(t0)
		r.attempted++
		switch {
		case err == nil:
		case serving.Overloaded(err):
			r.shed++
			continue
		default:
			r.errors++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("%q: %w", o.sql, err)
			}
			if pnet.Unavailable(err) {
				return // the transport is gone; spinning on it measures nothing
			}
			continue
		}
		r.samples = append(r.samples, sample{at: t0.Sub(start), lat: lat})
		if o.mode == serving.CacheUse {
			if out.CacheHit {
				r.hits[o.class]++
			} else {
				r.misses[o.class]++
			}
		}
		if n%checkEvery == 0 {
			r.checks = append(r.checks, checked{sql: o.sql, res: out.Result})
		}
	}
}

// totals sums the per-client counts.
func (w *windowRun) totals() (samples []sample, attempted, errors, shed int, hits, misses [numClasses]int) {
	for i := range w.clients {
		c := &w.clients[i]
		samples = append(samples, c.samples...)
		attempted += c.attempted
		errors += c.errors
		shed += c.shed
		for k := range hits {
			hits[k] += c.hits[k]
			misses[k] += c.misses[k]
		}
	}
	return
}

package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"bestpeer/internal/telemetry"
)

// This file is the engines' real concurrency layer. The paper's query
// executors are parallel by construction — §5.2's fetch-and-process
// strategy pulls from all data owners at once (the benchmark deployment
// runs 20 fetch threads per peer, §6.1.2) and §5.3's parallel engine
// runs replicated joins on every processing node simultaneously. The
// virtual-time cost model has always *simulated* that parallelism with
// vtime.Par; FanOut makes the wall clock agree with it: remote rounds
// dispatch concurrently while every observable output — row order, cost
// accumulation, pay-as-you-go charges — stays byte-for-byte identical
// to the sequential loops it replaces.

// fanoutWidth bounds the in-flight remote calls per fan-out round: the
// paper's per-peer fetch-thread count (§6.1.2: "20 threads are used for
// fetching data in parallel").
const fanoutWidth = 20

// Metric handles are resolved once; FanOut sits on every query's path.
var (
	fanoutRounds        = telemetry.Default.Counter("engine_fanout_rounds_total")
	fanoutQueueWait     = telemetry.Default.Histogram("engine_fanout_queue_seconds", nil)
	fanoutWorkersActive = telemetry.Default.Gauge("engine_fanout_workers_active")
	fanoutPoolExhausted = telemetry.Default.Counter("engine_fanout_pool_exhausted_total")
)

// workerSlots bounds the *extra* worker goroutines across every fan-out
// round executing in the process, so many concurrent queries cannot
// stack unbounded goroutine fleets: a worker holds one slot (a value in
// the channel) while it runs. The dispatching goroutine always works
// through the round itself without holding a slot, which keeps nested
// fan-outs (a table-resolution round whose Locate probes participants,
// say) deadlock-free: exhausting the pool only degrades a round toward
// sequential execution, never blocks it.
var workerSlots = make(chan struct{}, 4*fanoutWidth)

// tryAcquireWorker takes a worker slot without blocking.
func tryAcquireWorker() bool {
	select {
	case workerSlots <- struct{}{}:
		return true
	default:
		return false
	}
}

// FanOut dispatches call(0) … call(n-1) with at most
// min(fanoutWidth, n) calls in flight and returns the results in
// index order, so callers merging rows or folding costs over the slots
// observe the same output whatever order the calls complete in. A
// one-call round runs inline on the caller's goroutine.
//
// Every call runs to completion even when a sibling fails — in-flight
// work is drained, never abandoned — and the error at the lowest index
// is returned whatever order the calls fail in, so a data owner's
// ErrSnapshotNewer still wins deterministically and the Definition-2
// resubmission semantics are unchanged.
func FanOut[T any](n int, call func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	width := min(fanoutWidth, n)
	fanoutRounds.Inc()
	slots := make([]T, n)
	if width == 1 {
		v, err := call(0)
		if err != nil {
			return nil, err
		}
		slots[0] = v
		return slots, nil
	}

	// Queue wait is the gap between the round opening and a task being
	// picked up by a worker — the saturation signal for the shared pool.
	roundStart := time.Now()
	var picked atomic.Bool

	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if picked.CompareAndSwap(false, true) {
				fanoutQueueWait.ObserveDuration(time.Since(roundStart))
			}
			slots[i], errs[i] = call(i)
		}
	}
	var wg sync.WaitGroup
	for extra := 0; extra < width-1; extra++ {
		if !tryAcquireWorker() {
			fanoutPoolExhausted.Inc()
			break
		}
		wg.Add(1)
		fanoutWorkersActive.Add(1)
		go func() {
			defer wg.Done()
			defer fanoutWorkersActive.Add(-1)
			defer func() { <-workerSlots }()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return slots, nil
}

package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"bestpeer/internal/serving"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/tpch"
)

// run is one workload's pass through the benchmark's phases.
type run struct {
	cfg    config
	out    io.Writer
	res    *result
	c      *cluster
	keys   []keyRange
	ingest bool // the workload runs the churn schedule beside its reads
	win    *windowRun
	orc    *oracle

	// Totals of the measured window.
	samples      []sample // dropped, like the clients' own, before the heap is read
	succeeded    int
	attempted    int
	errors, shed int
	hits, misses [numClasses]int

	// Oracle comparisons so far.
	checks, mismatches int
}

func (r *run) e2e(name string, v float64, unit string, n int) {
	r.res.EndToEnd[name] = metric{v, unit, n}
}

func (r *run) layer(name string, v float64, unit string, n int) {
	r.res.PerLayer[name] = metric{v, unit, n}
}

func (r *run) violate(format string, args ...interface{}) {
	r.res.Violations = append(r.res.Violations, fmt.Sprintf(format, args...))
}

// runWorkload runs one workload end to end: set-ups, warm-up, the
// measured window, its oracle checks and the heap reading, the traced
// pass when asked, and the final checks.
func runWorkload(cfg config, w io.Writer) (*result, error) {
	known := false
	for _, name := range workloadNames {
		known = known || name == cfg.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	r := &run{
		cfg: cfg, out: w, ingest: cfg.workload == wlMixedIngest,
		res: &result{Workload: cfg.workload, EndToEnd: make(map[string]metric), PerLayer: make(map[string]metric)},
	}
	if err := r.setUp(); err != nil {
		return nil, err
	}
	defer r.c.close()
	if err := r.measure(); err != nil {
		return nil, err
	}
	r.windowMetrics()
	r.validateWorkload()
	if err := r.checkWindow(); err != nil {
		return nil, err
	}
	r.readHeap()
	if cfg.trace {
		if err := r.traced(); err != nil {
			return nil, err
		}
		if err := r.quietIngest(); err != nil {
			return nil, err
		}
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	for _, set := range []map[string]metric{r.res.EndToEnd, r.res.PerLayer} {
		for name, m := range set {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return nil, fmt.Errorf("metric %s is not finite", name)
			}
		}
	}
	r.res.print(w)
	return r.res, nil
}

// setUp builds the cluster cfg.setups times over and keeps the last:
// one build is a single sample of a ~1.5 s operation, and the median of
// a few is steadier.
func (r *run) setUp() error {
	var times []float64
	for i := 0; i < r.cfg.setups; i++ {
		if r.c != nil {
			r.c.close()
			r.c = nil
			runtime.GC()
		}
		t0 := time.Now()
		c, err := setupCluster(r.cfg)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		r.c = c
	}
	r.e2e("setup_s", median(times), "s", len(times))
	var err error
	if r.keys, err = r.c.orderKeys(); err != nil {
		r.c.close()
		return err
	}
	touchHeap()
	return nil
}

// touchHeap grows the process to the footprint it will run at, before
// anything is timed. Under load the heap climbs from the cluster's
// ~0.55 GB to the memory limit, and the kernel hands out those pages on
// first touch: measured on mixed_ingest, the first ~8 s under load had
// a p95 twice the later one (1.5 ms against 0.7 ms), outlasting the
// warm-up and ending at a different second on every run. A server that
// has been up for a minute does not pay this; so the harness touches
// the pages itself, with a block as large as the room left under the
// limit, and drops it. A process without a limit (the tests) has no
// such footprint to reach.
func touchHeap() {
	limit := debug.SetMemoryLimit(-1) // reads the limit, sets nothing
	if limit == math.MaxInt64 {
		return
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	room := limit - int64(mem.Sys-mem.HeapReleased) - 64<<20
	if room <= 0 {
		return
	}
	block := make([]byte, room)
	for i := 0; i < len(block); i += 4096 {
		block[i] = 1
	}
	runtime.KeepAlive(block)
}

// measure runs the warm-up and the measured window.
func (r *run) measure() error {
	clients := r.cfg.clients
	if r.ingest {
		clients = 1 // the ingest goroutine is the second thread
	}
	gens := make([]*generator, clients)
	for i := range gens {
		gens[i] = newGenerator(r.cfg.workload, r.cfg.seed, i, 0, r.keys)
	}
	if _, err := runWindow(r.c, r.cfg, gens, r.cfg.warmup, r.ingest); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var err error
	if r.win, err = runWindow(r.c, r.cfg, gens, r.cfg.window, r.ingest); err != nil {
		return fmt.Errorf("window: %w", err)
	}
	r.samples, r.attempted, r.errors, r.shed, r.hits, r.misses = r.win.totals()
	r.succeeded = len(r.samples)
	for i := range r.win.clients {
		if err := r.win.clients[i].firstErr; err != nil {
			fmt.Fprintf(r.out, "%s client %d first error: %v\n", r.cfg.workload, i, err)
		}
	}
	if len(r.samples) == 0 {
		return fmt.Errorf("no operation succeeded in the window")
	}
	return nil
}

// windowMetrics reports what the measured window alone supports: the
// latency metrics and the counter and MemStats deltas across it.
func (r *run) windowMetrics() {
	win, n, attempted := r.win, len(r.samples), r.attempted
	p50s, counts := sliceQuantiles(r.samples, r.cfg.window, 0.50)
	p95s, _ := sliceQuantiles(r.samples, r.cfg.window, 0.95)
	fmt.Fprintf(r.out, "%s slices p50_ms=%.4g p95_ms=%.4g n=%d\n", r.cfg.workload, p50s, p95s, counts)
	r.e2e("query_p50_ms", sliceLatency(r.samples, r.cfg.window, 0.50), "ms", n)
	r.e2e("query_p95_ms", sliceLatency(r.samples, r.cfg.window, 0.95), "ms", n)

	kops := float64(attempted) / 1000
	hits, misses := r.cacheLookups()
	r.layer("serving.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "fraction", hits+misses)
	r.layer("serving.shed_per_kop", win.counters["serving_shed_total"]/kops, "1/kop", attempted)
	r.layer("serving.cache_invalidations_per_round", ratio(win.counters["serving_cache_invalidations_total"], float64(len(win.rounds))), "count", len(win.rounds))
	r.layer("pnet.retries_per_kop", win.counters["pnet_retries_total"]/kops, "1/kop", attempted)
	r.layer("pnet.timeouts_per_kop", win.counters["pnet_timeouts_total"]/kops, "1/kop", attempted)
	r.layer("peer.resubmissions_per_kop", win.counters["peer_query_resubmissions_total"]/kops, "1/kop", attempted)
	planHits, planMisses := win.counters["sqldb_plan_cache_hits_total"], win.counters["sqldb_plan_cache_misses_total"]
	r.layer("sqldb.plan_cache_hit_ratio", ratio(planHits, planHits+planMisses), "fraction", int(planHits+planMisses))
	r.layer("sqldb.batch_fallbacks_per_kop", win.counters["sqldb_batch_fallbacks_total"]/kops, "1/kop", attempted)
	r.layer("runtime.allocs_per_op", float64(win.mem.Mallocs)/float64(attempted), "count", attempted)
	r.layer("runtime.alloc_kb_per_op", float64(win.mem.TotalAlloc)/1024/float64(attempted), "KB", attempted)
	r.layer("runtime.gc_pause_ms_per_s", float64(win.mem.PauseTotalNs)/1e6/win.length.Seconds(), "ms/s", int(win.mem.NumGC))
	r.layer("runtime.gc_cycles", float64(win.mem.NumGC), "count", 1)

	lats := make([]float64, n)
	for i, s := range r.samples {
		lats[i] = ms(s.lat)
	}
	sort.Float64s(lats)
	tail := supportedTail(n)
	r.layer("client.tail_ms", percentile(lats, tail), "ms", n)
	r.layer("client.tail_percentile", 100*tail, "%", n)

	// The open-loop ingest beside the reads; no rounds, and 0 with n=0,
	// on a workload without ingest.
	late, apply := make([]float64, len(win.rounds)), make([]float64, len(win.rounds))
	for i, rt := range win.rounds {
		late[i], apply[i] = ms(rt.late), ms(rt.apply)
	}
	sort.Float64s(late)
	sort.Float64s(apply)
	r.layer("harness.generator_lateness_p95_ms", percentile(late, 0.95), "ms", len(late))
	r.layer("ingest_apply_p50_ms", percentile(apply, 0.50), "ms", len(apply))
	r.layer("ingest_apply_p95_ms", percentile(apply, 0.95), "ms", len(apply))
}

// cacheLookups sums the window's result-cache hits and misses.
func (r *run) cacheLookups() (hits, misses int) {
	for k := range r.hits {
		hits += r.hits[k]
		misses += r.misses[k]
	}
	return hits, misses
}

// maxPointLookupHitRatio is the most the result cache may serve of
// point_lookup: ~120k keys and ~2.4k window starts against 512 entries
// per peer leave the windows a few percent of hits; more than this
// means the key domain or the cache changed under the workload.
const maxPointLookupHitRatio = 0.05

// validateWorkload is the workload self-validation: a workload that
// stopped stressing what it claims fails the run instead of measuring
// something else.
func (r *run) validateWorkload() {
	hits, misses := r.cacheLookups()
	hitRatio := ratio(float64(hits), float64(hits+misses))
	switch r.cfg.workload {
	case wlPointLookup:
		if hitRatio > maxPointLookupHitRatio {
			r.violate("serving.cache_hit_ratio %.4f > %.2f: the lookups are being served from the result cache", hitRatio, maxPointLookupHitRatio)
		}
	case wlReportScanJoin:
		if hits+misses != 0 || r.win.counters["serving_cache_hits_total"] != 0 {
			r.violate("report statements touched the result cache (%d lookups)", hits+misses)
		}
	case wlDashboardCached:
		if hitRatio < 0.99 {
			r.violate("serving.cache_hit_ratio %.4f < 0.99: the working set no longer fits the cache", hitRatio)
		}
	case wlMixedIngest:
		other := ratio(float64(r.hits[classDashOther]), float64(r.hits[classDashOther]+r.misses[classDashOther]))
		if other < 0.95 {
			r.violate("statements that do not read orders hit only %.4f < 0.95: ingest invalidates too broadly", other)
		}
		// Each of the 16 orders statements may miss once per round (and
		// once more for a round that straddles the window's start).
		rounds, missed := len(r.win.rounds), r.misses[classDashOrders]
		if limit := 16 * (rounds + 1); missed > limit {
			r.violate("orders statements missed %d times, more than once per statement per round (%d)", missed, limit)
		}
		if rounds > 0 && missed == 0 {
			r.violate("orders statements never missed although %d ingest rounds landed", rounds)
		}
	}
}

// traced runs the traced pass (single client, nothing else running),
// writes its spans and reports its per-layer numbers: observations.typical
// for times, plain means for counts.
func (r *run) traced() error {
	tr := newTracer()
	var variants [3]*generator
	for v := range variants {
		variants[v] = newGenerator(r.cfg.workload, r.cfg.seed, 0, v, r.keys)
	}
	obs, err := tracedPass(r.c, r.cfg, variants, tr)
	if err != nil {
		return err
	}
	if err := tr.write(r.cfg.outDir, r.cfg.workload); err != nil {
		return err
	}
	for _, name := range []string{
		"serving.hit_path_ms", "serving.stamp_ms", "serving.queue_wait_ms",
		"pnet.echo_rtt_ms", "pnet.result_rtt_ms",
		"peer.query_ms", "peer.subquery_max_ms", "peer.subquery_median_ms", "peer.subquery_sum_ms",
		"engine.self_ms", "indexer.locate_ms", "indexer.locate_cold_ms",
		"sqldb.parse_ms", "sqldb.local_query_ms", "client.query_ms",
	} {
		r.layer(name, obs.typical(name), "ms", len(obs[name]))
	}
	explained, client := obs.blockMeans("budget.explained_ms"), obs.blockMeans("client.query_ms")
	unexplained := make([]float64, len(client))
	for b := range client {
		unexplained[b] = 100 * (1 - ratio(explained[b], client[b]))
	}
	r.layer("budget.unexplained_pct", median(unexplained), "%", len(obs["client.query_ms"]))
	for _, name := range []string{"pnet.reply_bytes_per_op", "engine.bytes_fetched_per_op"} {
		r.layer(name, obs.mean(name), "B", len(obs[name]))
	}
	for _, name := range []string{
		"pnet.msgs_per_op", "engine.subqueries_per_op", "engine.peers_per_op",
		"baton.hops_per_lookup", "indexer.peers_per_locate", "sqldb.rows_scanned_per_op",
	} {
		r.layer(name, obs.mean(name), "count", len(obs[name]))
	}
	r.layer("engine.rows_scanned_per_row_returned", ratio(obs.sum("sqldb.rows_scanned_per_op"), obs.sum("rows_returned")), "ratio", len(obs["rows_returned"]))
	printBudget(r.out, r.cfg.workload, obs)
	return nil
}

// quietRounds is how many churn rounds the traced pass of an ingest
// workload runs back to back with nothing beside them.
const quietRounds = 20

// quietIngest reports the loader, WAL and ERP costs of a churn round on
// their own, the terms of the window's ingest_apply_*. A workload
// without ingest runs no round and reports 0 with n=0.
func (r *run) quietIngest() error {
	rounds := 0
	if r.ingest {
		rounds = quietRounds
	}
	before := counterSums()
	var syncs, execs []float64
	var events int
	for i := 0; i < rounds; i++ {
		rt, err := r.c.ingest.round(r.cfg.mutations, time.Now())
		if err != nil {
			return fmt.Errorf("quiet ingest round: %w", err)
		}
		syncs = append(syncs, ms(rt.sync))
		execs = append(execs, ms(rt.exec)/float64(r.cfg.mutations))
		events += rt.delta.Events
	}
	after := counterSums()
	perRound := func(name string) float64 { return ratio(after[name]-before[name], float64(rounds)) }
	sinceWindow := func(name string) float64 { return after[name] - before[name] + r.win.counters[name] }
	r.layer("loader.sync_ms", median(syncs), "ms", rounds)
	r.layer("loader.events_per_round", ratio(float64(events), float64(rounds)), "count", rounds)
	r.layer("loader.cdc_fallbacks", sinceWindow("loader_cdc_fallbacks_total"), "count", rounds+len(r.win.rounds))
	r.layer("loader.merge_rollbacks", sinceWindow("loader_merge_rollbacks_total"), "count", rounds+len(r.win.rounds))
	r.layer("erp.exec_ms_per_mutation", median(execs), "ms", rounds)
	r.layer("sqldb.wal_records_per_round", perRound("sqldb_wal_records_total"), "count", rounds)
	r.layer("sqldb.wal_group_commits_per_round", perRound("sqldb_wal_group_commits_total"), "count", rounds)
	return nil
}

// check compares one result with the oracle's answer.
func (r *run) check(sql string, got *sqldb.Result) error {
	ok, err := r.orc.matches(sql, got)
	if err != nil {
		return err
	}
	r.checks++
	if !ok {
		r.mismatches++
		r.violate("oracle mismatch: %s", sql)
	}
	return nil
}

// checkWindow compares every sampled op of the window with the oracle,
// takes the one answer the final checks need, and lets the oracle's
// data go again.
func (r *run) checkWindow() error {
	var err error
	if r.orc, err = newOracle(r.cfg.peers, r.cfg.sf); err != nil {
		return err
	}
	defer r.orc.release()
	for i := range r.win.clients {
		for _, ck := range r.win.clients[i].checks {
			if err := r.check(ck.sql, ck.res); err != nil {
				return err
			}
		}
	}
	_, err = r.orc.answer(tpch.Q5())
	return err
}

// readHeap reports what the cluster holds live at the window's end: the
// harness first drops what it holds itself (the oracle's data, the
// window's latency samples and the sampled results, which grow with
// throughput), and the traced pass has not run yet.
func (r *run) readHeap() {
	r.samples = nil
	for i := range r.win.clients {
		r.win.clients[i].samples, r.win.clients[i].checks = nil, nil
	}
	// Two collections: the first only moves sync.Pool contents (sqldb's
	// per-plan batch buffers) to the victim cache, the second frees them,
	// so the number is the data and caches the cluster really holds.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.e2e("live_heap_mb", float64(mem.HeapAlloc)/(1<<20), "MB", 1)
}

// verify is the final correctness check, after everything else has run:
// Q5 through a session must equal the oracle's answer, and after the
// last sync the ingested keys seen through a session must be exactly the
// ERP's live rows. It also settles the counts that depend on the checks.
func (r *run) verify() error {
	session := r.c.sessions[0]
	q5, err := session.Query(tpch.Q5(), serving.CacheBypass)
	if err != nil {
		return fmt.Errorf("Q5 through a session: %w", err)
	}
	if err := r.check(tpch.Q5(), q5.Result); err != nil {
		return err
	}
	cnt, err := session.Query(fmt.Sprintf("SELECT COUNT(*) FROM orders WHERE o_orderkey >= %d", ingestKeyBase), serving.CacheBypass)
	if err != nil {
		return fmt.Errorf("ingested row count through a session: %w", err)
	}
	r.checks++
	if got, want := cnt.Result.Rows[0][0].AsInt(), int64(len(r.c.ingest.live)); got != want {
		r.mismatches++
		r.violate("ingested rows: a session counts %d, the ERP holds %d", got, want)
	}

	res := r.res
	res.Attempted = r.attempted + 2 // the window's ops, Q5 and the ingest count
	res.Failed = r.errors + r.shed + r.mismatches
	res.Mismatches = r.mismatches
	res.Correct = len(res.Violations) == 0 && r.errors == 0
	r.e2e("throughput_qps", float64(r.succeeded-r.mismatches)/r.win.length.Seconds(), "ops/s", r.succeeded)
	r.layer("error_rate", float64(res.Failed)/float64(res.Attempted), "fraction", res.Attempted)
	r.layer("oracle.checks", float64(r.checks), "count", r.checks)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printBudget prints how the traced pass's terms add up to the
// client-observed time of one operation.
func printBudget(w io.Writer, workload string, obs observations) {
	client, query := obs.typical("client.query_ms"), obs.typical("peer.query_ms")
	if client == 0 || query == 0 {
		return
	}
	term := func(total, x float64) string { return fmt.Sprintf("%.4f (%.0f%%)", x, 100*x/total) }
	echo, frame := obs.typical("pnet.echo_rtt_ms"), obs.typical("pnet.result_rtt_ms")-obs.typical("pnet.echo_rtt_ms")
	stamp, miss := obs.typical("serving.stamp_ms"), obs.typical("budget.miss_path_ms")
	fmt.Fprintf(w, "%s budget: client.query %.4f ms = echo %s + result frame %s + stamp %s + queue and peer.query of the ops that missed the cache %s + unexplained %s\n",
		workload, client, term(client, echo), term(client, frame), term(client, stamp), term(client, miss),
		term(client, client-echo-frame-stamp-miss))
	fmt.Fprintf(w, "%s budget: peer.query %.4f ms = parse %s + locate %s + slowest-owner subquery %s + engine self %s\n",
		workload, query, term(query, obs.typical("sqldb.parse_ms")), term(query, obs.typical("indexer.locate_ms")),
		term(query, obs.typical("peer.subquery_max_ms")), term(query, obs.typical("engine.self_ms")))
	// The identity charges the fan-out with its slowest owner, which holds
	// when every owner has a core. With fewer cores than owners the
	// subqueries queue for them, and that wait lands in engine self.
	cores := float64(runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%s budget: all owners' subqueries one after another take %.4f ms; on %.0f cores the fan-out cannot take less than %s, so engine self holds up to %s of fan-out\n",
		workload, obs.typical("peer.subquery_sum_ms"), cores, term(query, obs.typical("peer.subquery_sum_ms")/cores),
		term(query, obs.typical("peer.subquery_sum_ms")-obs.typical("peer.subquery_max_ms")))
}

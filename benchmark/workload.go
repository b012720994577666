package main

import (
	"fmt"
	"math/rand"

	"bestpeer/internal/serving"
	"bestpeer/internal/sqlval"
	"bestpeer/internal/tpch"
)

// The four workloads and why each exists (the reasons are repeated in
// BENCHMARK.json and README.md).
const (
	// ~120k distinct statements against 512-entry result caches:
	// serving, the wire, parse/plan cache and locate do the work.
	wlPointLookup = "point_lookup"
	// Q1-Q4 shapes with the result cache bypassed: sqldb execution,
	// fan-out/join/merge and result encoding dominate.
	wlReportScanJoin = "report_scan_join"
	// 32 statements that fit the cache: every op is a hit, so only the
	// session, stamp, cache and wire path is measured.
	wlDashboardCached = "dashboard_cached"
	// Reads beside a CDC ingest stream: the same caches, tables and
	// Definition 2 gate with writes landing next to the reads.
	wlMixedIngest = "mixed_ingest"
)

var workloadNames = []string{wlPointLookup, wlReportScanJoin, wlDashboardCached, wlMixedIngest}

// opClass groups operations for the workload self-validation.
type opClass int

const (
	classPoint opClass = iota
	classWindow
	classReport
	classDashOrders // cached statement that reads orders (ingest invalidates it)
	classDashOther  // cached statement that reads only lineitem/part/partsupp
	numClasses
)

// op is one generated client operation. The program under test only
// ever sees sql and mode.
type op struct {
	sql   string
	mode  serving.CacheMode
	class opClass
}

// keyRange is one peer's dense o_orderkey range [lo, lo+n).
type keyRange struct{ lo, n int64 }

func day(s string) int64 { return sqlval.MustParseDate(s).AsDays() }

func date(d int64) string { return sqlval.Date(d).String() }

// dashboardStatements are the 32 fixed reporting statements, orders and
// non-orders readers alternating so both halves get the same share of
// the Zipf mass. The orders statements filter on o_orderdate, which the
// ingested rows (keys >= 1<<30, every other column NULL) never pass, so
// their answers stay comparable to the static oracle.
func dashboardStatements() []op {
	out := make([]op, 32)
	for i := range out {
		k := i / 2
		if i%2 == 0 {
			out[i] = op{class: classDashOrders, sql: fmt.Sprintf(
				"SELECT o_orderpriority, COUNT(*), SUM(o_totalprice) FROM orders WHERE o_orderdate >= DATE '%s' GROUP BY o_orderpriority",
				date(day("1997-01-01")+int64(k)*30))}
		} else if k%2 == 0 {
			out[i] = op{class: classDashOther, sql: tpch.Q2(date(day("1998-04-01") + int64(k/2)*7))}
		} else {
			out[i] = op{class: classDashOther, sql: tpch.Q4(8 + k)}
		}
		out[i].mode = serving.CacheUse
	}
	return out
}

// deck deals a fixed multiset of shapes in seeded random order and
// reshuffles when it runs out, so every len(cards) consecutive draws hold
// exactly the stated mix. Shapes differ tenfold in cost; drawing each
// one independently would let the realised mix, and with it every
// metric, drift a few percent between seeds.
type deck struct {
	rng   *rand.Rand
	cards []int
	pos   int
}

// newDeck holds counts[i] cards of shape i.
func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for shape, n := range counts {
		for ; n > 0; n-- {
			d.cards = append(d.cards, shape)
		}
	}
	return d
}

func (d *deck) next() int {
	if d.pos == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.pos]
	d.pos = (d.pos + 1) % len(d.cards)
	return c
}

// generator deals one client's seeded operation sequence. Two streams
// drive it: mix decides which shape comes next, params fills the shape
// in. Generators of the same client that differ only in variant deal
// the same shapes with other parameters: the traced pass needs them,
// because replaying the very statement a session just ran would find
// every owner's plan cache warm, which the session's run did not.
type generator struct {
	workload string
	params   *rand.Rand
	keys     []keyRange
	windows  *tpch.ShipdateWorkload
	dash     []op
	zipf     *rand.Zipf // mix stream: which dashboard statement
	lookups  *deck      // mix stream: 7 key lookups to 3 shipdate windows
	reports  *deck      // mix stream: Q1..Q4 in equal parts
	halves   *deck      // mix stream: mixed_ingest's dashboard/lookup halves
}

// newGenerator builds client's generator for a workload. The same
// arguments always deal the same sequence.
func newGenerator(workload string, seed int64, client, variant int, keys []keyRange) *generator {
	m := seed*1_000_003 + int64(client)*7919
	p := m*31 + int64(variant) + 1
	mix := rand.New(rand.NewSource(m))
	g := &generator{
		workload: workload,
		params:   rand.New(rand.NewSource(p)),
		keys:     keys,
		windows:  tpch.NewShipdateWorkload(p+1, false, 7),
		dash:     dashboardStatements(),
		lookups:  newDeck(mix, 7, 3),
		reports:  newDeck(mix, 1, 1, 1, 1),
		halves:   newDeck(mix, 1, 1),
	}
	g.zipf = rand.NewZipf(mix, 1.1, 1, uint64(len(g.dash)-1))
	return g
}

func (g *generator) next() op {
	switch g.workload {
	case wlPointLookup:
		return g.pointLookup()
	case wlReportScanJoin:
		return g.report()
	case wlDashboardCached:
		return g.dash[g.zipf.Uint64()]
	default: // wlMixedIngest
		if g.halves.next() == 0 {
			return g.dash[g.zipf.Uint64()]
		}
		return g.pointLookup()
	}
}

func (g *generator) pointLookup() op {
	if g.lookups.next() == 1 {
		return op{sql: g.windows.Next(), mode: serving.CacheUse, class: classWindow}
	}
	r := g.keys[g.params.Intn(len(g.keys))]
	return op{
		sql:   fmt.Sprintf("SELECT o_orderkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = %d", r.lo+g.params.Int63n(r.n)),
		mode:  serving.CacheUse,
		class: classPoint,
	}
}

// report deals Q1-Q4 in equal parts, each with one of 12 parameter
// values near the paper's defaults, so result sizes stay in one band
// and every statement text recurs (the plan cache is warm, the result
// cache is bypassed).
func (g *generator) report() op {
	v := int64(g.params.Intn(12)) - 6
	var sql string
	switch g.reports.next() {
	case 0:
		sql = tpch.Q1(date(day("1998-09-01")+v), "1998-10-01")
	case 1:
		sql = tpch.Q2(date(day("1998-06-01") + v))
	case 2:
		d := date(day("1998-06-01") + v)
		sql = tpch.Q3(d, d)
	default:
		sql = tpch.Q4(int(16 + v))
	}
	return op{sql: sql, mode: serving.CacheBypass, class: classReport}
}

package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"bestpeer/internal/engine"
	"bestpeer/internal/peer"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/sqlval"
)

func TestSliceLatencyDropsOneStalledSlice(t *testing.T) {
	const window = 10 * time.Second
	var samples []sample
	for i := 0; i < 1000; i++ {
		at := time.Duration(i) * window / 1000
		lat := time.Duration(1+i%10) * time.Millisecond // 1..10 ms in every slice
		switch {
		case i >= 300 && i < 400:
			lat += time.Second // a stall owns slice 3
		case i >= 500:
			lat += 2 * time.Millisecond // the second half runs in a slower regime
		}
		samples = append(samples, sample{at: at, lat: lat})
	}
	// Slice medians are 5 (slices 0-2, 4), 1005 (slice 3) and 7 (slices
	// 5-9): the lowest and the stalled slice go, and 3 fives and 5 sevens
	// average to 6.25.
	if got := sliceLatency(samples, window, 0.50); got != 6.25 {
		t.Errorf("p50 = %v ms, want 6.25", got)
	}
	if got := sliceLatency(samples, window, 0.95); got != 11.25 {
		t.Errorf("p95 = %v ms, want 11.25", got)
	}
	// Samples outside the window and empty slices are skipped.
	late := []sample{{at: window, lat: time.Hour}, {at: time.Second, lat: 2 * time.Millisecond}}
	if got := sliceLatency(late, window, 0.50); got != 2 {
		t.Errorf("p50 with an out-of-window sample = %v ms, want 2", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0: 1, 0.5: 5, 0.9: 9, 0.95: 10, 1: 10} {
		if got := percentile(sorted, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestSupportedTail(t *testing.T) {
	for n, want := range map[int]float64{5: 0.50, 40: 0.75, 100: 0.90, 200: 0.95, 1000: 0.99, 10000: 0.999, 100000: 0.9999} {
		if got := supportedTail(n); got != want {
			t.Errorf("supportedTail(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestLateness(t *testing.T) {
	due := time.Unix(100, 0)
	if got := lateness(due, due.Add(3*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("late start: %v, want 3ms", got)
	}
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("early start: %v, want 0", got)
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: covered once
		{ID: 4, Parent: 1, Start: 60, End: 70},  // disjoint
		{ID: 5, Parent: 1, Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 6, Parent: 3, Start: 25, End: 45},  // grandchild: only its parent's business
	}
	fillSelfTimes(spans)
	want := map[int]int64{1: 100 - (40 + 10 + 10), 2: 20, 3: 10, 4: 10, 5: 30, 6: 20}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d self = %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
}

func TestSameSeedSameOperations(t *testing.T) {
	keys := []keyRange{{lo: 0, n: 1000}, {lo: 5000, n: 1000}}
	for _, wl := range workloadNames {
		a, b := newGenerator(wl, 7, 0, 0, keys), newGenerator(wl, 7, 0, 0, keys)
		other := newGenerator(wl, 8, 0, 0, keys)
		variant := newGenerator(wl, 7, 0, 1, keys)
		differs, variantDiffers := false, false
		for i := 0; i < 500; i++ {
			x, y, v := a.next(), b.next(), variant.next()
			if x != y {
				t.Fatalf("%s op %d: same seed dealt %q and %q", wl, i, x.sql, y.sql)
			}
			if x.class != v.class {
				t.Fatalf("%s op %d: variant 1 dealt another shape (%q, %q)", wl, i, x.sql, v.sql)
			}
			differs = differs || x != other.next()
			variantDiffers = variantDiffers || x != v
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 dealt the same 500 operations", wl)
		}
		if wl != wlDashboardCached && !variantDiffers {
			t.Errorf("%s: variants 0 and 1 dealt the same parameters", wl)
		}
	}
}

func TestDeckKeepsTheMixInEveryBlock(t *testing.T) {
	g := newGenerator(wlPointLookup, 3, 0, 0, []keyRange{{lo: 0, n: 1000}})
	for block := 0; block < 50; block++ {
		windows := 0
		for i := 0; i < 10; i++ {
			if g.next().class == classWindow {
				windows++
			}
		}
		if windows != 3 {
			t.Fatalf("block %d holds %d shipdate windows, want 3 of 10", block, windows)
		}
	}
}

func TestSameRowsToleratesSummationOrder(t *testing.T) {
	row := func(k string, f float64) sqlval.Row { return sqlval.Row{sqlval.Str(k), sqlval.Float(f)} }
	a := sortedRows([]sqlval.Row{row("b", 2e9), row("a", 1e9)})
	b := sortedRows([]sqlval.Row{row("a", 1e9*(1+1e-13)), row("b", 2e9)})
	if !sameRows(a, b) {
		t.Error("rows differing by 1e-13 relative should match")
	}
	if sameRows(a, sortedRows([]sqlval.Row{row("a", 1e9*(1+1e-6)), row("b", 2e9)})) {
		t.Error("rows differing by 1e-6 relative should not match")
	}
	if sameRows(a, a[:1]) {
		t.Error("row sets of different sizes should not match")
	}
}

// replayAnswer finishes a replayed plan the way the submitting peer
// would: the one owner's answer as it is, partial aggregates merged, and
// otherwise the statement run over the fetched rows alone.
func replayAnswer(sql string, st stages) ([]sqlval.Row, error) {
	if st.whole {
		return st.plan[0].rows, nil
	}
	if st.decomp != nil {
		res, err := sqldb.ProjectRows(st.decomp.Merge, []sqldb.Binding{{Alias: "partial", Schema: st.decomp.PartialSchema}}, st.plan[0].rows)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
	db := sqldb.NewDB()
	for _, t := range st.plan {
		schema := t.binding[0].Schema
		if _, err := db.CreateTable(schema); err != nil {
			return nil, err
		}
		for _, row := range t.rows {
			if err := db.InsertRow(schema.Table, row); err != nil {
				return nil, err
			}
		}
	}
	res, err := db.Query(sql)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// TestReplayMatchesPeerQuery holds the traced pass's staged replay
// against Peer.Query on every statement shape of every workload: the
// same number of owner subqueries returning the same number of bytes
// (so the same partial aggregates and bloom filters), the same data
// owners, and fetched rows that finish to the same answer. When the engine's plan changes
// and the replay does not follow, the per-layer budget would describe a
// plan the system no longer runs; this test fails first. The one-peer
// cluster covers the whole-statement shortcut.
func TestReplayMatchesPeerQuery(t *testing.T) {
	for _, peers := range []int{1, 3} {
		c, err := setupCluster(config{peers: peers, sf: 0.004, clients: 1, seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		keys, err := c.orderKeys()
		if err != nil {
			t.Fatal(err)
		}
		// 20 draws deal every shape of the lookup and report decks; the
		// dashboard statements are taken whole.
		statements := make(map[string]bool)
		for _, wl := range []string{wlPointLookup, wlReportScanJoin} {
			g := newGenerator(wl, 1, 0, 0, keys)
			for i := 0; i < 20; i++ {
				statements[g.next().sql] = true
			}
		}
		for _, o := range dashboardStatements() {
			statements[o.sql] = true
		}
		front, cold := c.fronts[0], c.net.Peers()[peers-1]
		whole := 0
		for sql := range statements {
			qr, err := front.Query(sql, "", peer.StrategyBasic, engine.Options{})
			if err != nil {
				t.Fatalf("%d peers: Peer.Query %q: %v", peers, sql, err)
			}
			st, err := replayStages(c, front, cold, sql, newTracer(), 0, 1)
			if err != nil {
				t.Fatalf("%d peers: replay %q: %v", peers, sql, err)
			}
			if st.subqueries != qr.SubQueries {
				t.Errorf("%d peers: %q: the replay made %d subqueries, Peer.Query %d", peers, sql, st.subqueries, qr.SubQueries)
			}
			if st.fetched != qr.BytesFetched {
				t.Errorf("%d peers: %q: the replay fetched %d bytes, Peer.Query %d", peers, sql, st.fetched, qr.BytesFetched)
			}
			owners := make(map[string]bool)
			for _, tp := range st.plan {
				for _, o := range tp.owners {
					owners[o] = true
				}
			}
			located := make([]string, 0, len(owners))
			for o := range owners {
				located = append(located, o)
			}
			sort.Strings(located)
			if !reflect.DeepEqual(located, qr.Peers) {
				t.Errorf("%d peers: %q: the replay located %v, Peer.Query %v", peers, sql, located, qr.Peers)
			}
			rows, err := replayAnswer(sql, st)
			if err != nil {
				t.Fatalf("%d peers: finishing the replay of %q: %v", peers, sql, err)
			}
			if !sameRows(sortedRows(rows), sortedRows(qr.Result.Rows)) {
				t.Errorf("%d peers: %q: the replay's rows finish to %d rows that differ from Peer.Query's %d", peers, sql, len(rows), len(qr.Result.Rows))
			}
			if st.whole {
				whole++
			}
			if (qr.Engine == "single-peer") != st.whole {
				t.Errorf("%d peers: %q: Peer.Query ran as %s, the replay shipped the whole statement: %v", peers, sql, qr.Engine, st.whole)
			}
		}
		if want := map[int]int{1: len(statements), 3: 0}[peers]; whole != want {
			t.Errorf("%d peers: %d of %d statements took the whole-statement shortcut, want %d", peers, whole, len(statements), want)
		}
		c.close()
	}
}

// TestSmoke runs every workload at a toy scale and checks that every
// metric BENCHMARK.json names is reported and finite and that the
// oracle agrees. The workload self-validation thresholds are tuned to
// the frozen shape and are not asserted here.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	for _, wl := range spec.Workloads {
		cfg := config{
			workload: wl.Name, seed: 1, trace: true,
			window: 400 * time.Millisecond, warmup: 100 * time.Millisecond,
			peers: 2, sf: 0.004, clients: 2, setups: 1, traceOps: 20,
			ingestEvery: 100 * time.Millisecond, mutations: 20,
			outDir: t.TempDir(),
		}
		res, err := runWorkload(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if res.Mismatches != 0 || res.Failed != 0 {
			t.Errorf("%s: %d oracle mismatches, %d failed operations: %v", wl.Name, res.Mismatches, res.Failed, res.Violations)
		}
		check := func(set map[string]metric, name, unit string) {
			m, ok := set[name]
			if !ok {
				t.Errorf("%s: metric %s is missing", wl.Name, name)
				return
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %v", wl.Name, name, m.Value)
			}
			if m.Unit != unit {
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, name, m.Unit, unit)
			}
		}
		for _, m := range spec.EndToEnd {
			check(res.EndToEnd, m.Name, m.Unit)
		}
		for _, m := range spec.PerLayer {
			check(res.PerLayer, m.Name, m.Unit)
		}
		if len(res.EndToEnd) != len(spec.EndToEnd) || len(res.PerLayer) != len(spec.PerLayer) {
			t.Errorf("%s: reports %d+%d metrics, BENCHMARK.json names %d+%d",
				wl.Name, len(res.EndToEnd), len(res.PerLayer), len(spec.EndToEnd), len(spec.PerLayer))
		}
	}
}

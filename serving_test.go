package bestpeer

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bestpeer/internal/pnet"
	"bestpeer/internal/serving"
	"bestpeer/internal/telemetry"
)

// servingShedTotal sums the class-labeled shed counters in the shared
// process-wide registry.
func servingShedTotal() int64 {
	var total int64
	for _, class := range []string{serving.ClassInteractive, serving.ClassBatch} {
		total += telemetry.Default.Counter("serving_shed_total", telemetry.L("class", class)).Value()
	}
	return total
}

// TestServingEndToEndCacheInvalidation proves the cluster-version
// wiring: a result cached at one peer's serving tier must be
// invalidated by DML executed at a *different* peer's database,
// because fan-out queries read every data owner. A peer-local version
// source would serve the stale count here.
func TestServingEndToEndCacheInvalidation(t *testing.T) {
	n := newLoadedNetwork(t, 4, 0.002)
	n.EnableServing(serving.Config{})

	cl := n.ServingClient("cache-client", 0)
	if err := cl.Open("", serving.ClassInteractive, ""); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const sql = `SELECT COUNT(*) FROM lineitem`
	first, err := cl.Query(sql, serving.CacheUse)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("cold query reported a cache hit")
	}
	before := first.Result.Rows[0][0].AsInt()

	warm, err := cl.Query(sql, serving.CacheUse)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("repeat query missed the result cache")
	}
	if got := warm.Result.Rows[0][0].AsInt(); got != before {
		t.Fatalf("cached count %d != executed count %d", got, before)
	}

	// DML at a peer that is NOT the serving peer: peer 2's rows vanish,
	// so the cached cluster-wide count is stale the moment this commits.
	del, err := n.Peer(2).DB().Exec(`DELETE FROM lineitem WHERE l_quantity >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(del.Rows) == 0 && del.Stats.RowsScanned == 0 {
		t.Log("delete touched no rows; peer 2 held no lineitem data at this sf")
	}

	after, err := cl.Query(sql, serving.CacheUse)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheHit {
		t.Fatal("stale cache hit after remote DML: cluster versions not consulted")
	}
	got := after.Result.Rows[0][0].AsInt()
	if got >= before {
		t.Fatalf("count %d not reduced by remote delete (was %d)", got, before)
	}

	// The fresh result re-caches under the new version stamp.
	again, err := cl.Query(sql, serving.CacheUse)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Result.Rows[0][0].AsInt() != got {
		t.Fatalf("re-cached result wrong: hit=%v count=%d want %d",
			again.CacheHit, again.Result.Rows[0][0].AsInt(), got)
	}
}

// TestServingSurvivesFailoverUnderLoad races cacheable serving traffic
// against topology mutations: every CacheUse lookup reads
// ClusterTableVersions from a handler goroutine while a peer crashes, the
// maintenance daemon replaces it (rewriting the peer slice and serving
// tier map), and a late peer joins. Run under -race this pins the
// snapshot discipline on Network's peer topology; mid-crash query
// errors are expected, but after failover the tier must serve again.
func TestServingSurvivesFailoverUnderLoad(t *testing.T) {
	n := newLoadedNetwork(t, 3, 0.002)
	n.EnableServing(serving.Config{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := n.ServingClient(fmt.Sprintf("failover-client-%d", c), 0)
			if err := cl.Open("", serving.ClassInteractive, ""); err != nil {
				t.Errorf("client %d open: %v", c, err)
				return
			}
			defer cl.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are fine while the crashed data owner is gone;
				// the invariant under test is race-freedom.
				_, _ = cl.Query(`SELECT COUNT(*) FROM lineitem`, serving.CacheUse)
			}
		}(c)
	}

	victim := n.Peer(2).ID()
	if err := n.CrashPeer(victim); err != nil {
		t.Fatal(err)
	}
	if err := n.RunMaintenance(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Join a fresh peer after the overlay is whole again, still under
	// full query load: AddPeer appends to the same slice the handler
	// goroutines snapshot.
	if _, err := n.AddPeer("late-joiner"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if n.PeerByID(victim) != nil {
		t.Fatalf("failover did not replace %s", victim)
	}
	cl := n.ServingClient("failover-after", 0)
	if err := cl.Open("", serving.ClassInteractive, ""); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(`SELECT COUNT(*) FROM lineitem`, serving.CacheUse); err != nil {
		t.Fatalf("query after failover: %v", err)
	}
}

// TestChaosServingShedsUnderInjectedSlowness wires the fault harness
// into the admission controller: injected delay on the data-plane
// subquery verb inflates every fan-out query's service time, queue
// waits blow the shed budget, and excess load must be rejected with the
// typed overload error — never a hang, never an untyped failure. After
// the fault heals, admission recovers without restarting anything.
func TestChaosServingShedsUnderInjectedSlowness(t *testing.T) {
	n := newLoadedNetwork(t, 3, 0.002)
	n.EnableServing(serving.Config{
		Workers:        2,
		QueueDepth:     8,
		ShedP95:        5 * time.Millisecond,
		ShedP99:        10 * time.Millisecond,
		ShedWindow:     200 * time.Millisecond,
		MinShedSamples: 4,
	})
	shed0 := servingShedTotal()

	// Every subquery to every data owner stalls 25ms; with 2 workers the
	// queue backs up within a handful of queries.
	n.Net.SetFaultPlan(pnet.NewFaultPlan(chaosSeed).Delay("", "peer.subquery", 25*time.Millisecond))

	const clients = 24
	var wg sync.WaitGroup
	var mu sync.Mutex
	shed, completed := 0, 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := n.ServingClient("chaos-client", 0)
			class := serving.ClassInteractive
			if c%4 == 3 {
				class = serving.ClassBatch
			}
			if err := cl.Open("", class, ""); err != nil {
				if !serving.Overloaded(err) {
					t.Errorf("client %d open: %v", c, err)
				}
				return
			}
			defer cl.Close()
			for i := 0; i < 6; i++ {
				_, err := cl.Query(`SELECT COUNT(*) FROM lineitem`, serving.CacheBypass)
				mu.Lock()
				switch {
				case err == nil:
					completed++
				case serving.Overloaded(err):
					shed++
				default:
					t.Errorf("client %d: untyped error under overload: %v", c, err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if shed == 0 {
		t.Fatalf("no queries shed under injected slowness (%d completed)", completed)
	}
	if completed == 0 {
		t.Fatal("admission shed everything; admitted queries must still complete")
	}
	// The rejections are visible in telemetry, class-labeled. (Counters
	// are process-wide, so assert the delta across this test only.)
	if got := servingShedTotal() - shed0; got < int64(shed) {
		t.Errorf("telemetry counted %d shed, clients saw %d typed rejections", got, shed)
	}

	// Heal: the same sessions' peer answers again and admission stops
	// shedding once the window drains.
	n.Net.SetFaultPlan(nil)
	cl := n.ServingClient("chaos-recovery", 0)
	if err := cl.Open("", serving.ClassInteractive, ""); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := cl.Query(`SELECT COUNT(*) FROM lineitem`, serving.CacheBypass); err == nil {
			break
		} else if !serving.Overloaded(err) {
			t.Fatalf("post-heal query failed untyped: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("admission control still shedding 5s after the fault healed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

package serving

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bestpeer/internal/pnet"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/sqlval"
)

// stubBackend answers every query with a canned result after an
// optional service delay, counting executions.
type stubBackend struct {
	delay time.Duration
	execs atomic.Int64
	err   error
}

func (b *stubBackend) ServeQuery(sql, user, strategy string) (Executed, error) {
	b.execs.Add(1)
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	if b.err != nil {
		return Executed{}, b.err
	}
	res := &sqldb.Result{Columns: []string{"n"}}
	res.Stats.BytesReturned = 8
	return Executed{Result: res, Engine: "stub", VTime: time.Millisecond}, nil
}

// attach wires a Server over a fresh in-process network and returns a
// client-side endpoint facing it.
func attach(t *testing.T, be Backend, cfg Config) (*Server, *pnet.Endpoint) {
	t.Helper()
	net := pnet.NewNetwork()
	srv := Attach(net.Join("server"), be, cfg)
	t.Cleanup(srv.Close)
	return srv, net.Join("client")
}

func TestSessionLifecycle(t *testing.T) {
	be := &stubBackend{}
	srv, ep := attach(t, be, Config{})
	cl := NewClient(ep, "server")

	// Query before open fails typed.
	if _, err := cl.Query("SELECT COUNT(*) FROM t", CacheUse); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("query before open: got %v, want ErrUnknownSession", err)
	}
	if err := cl.Open("alice", ClassInteractive, "basic"); err != nil {
		t.Fatalf("open: %v", err)
	}
	if cl.SessionID() == "" {
		t.Fatal("open returned empty session id")
	}
	if got := srv.Sessions(); got != 1 {
		t.Fatalf("sessions = %d, want 1", got)
	}
	for i := 0; i < 3; i++ {
		out, err := cl.Query("SELECT COUNT(*) FROM t", CacheBypass)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if out.Engine != "stub" {
			t.Fatalf("engine = %q", out.Engine)
		}
	}
	n, err := cl.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if n != 3 {
		t.Fatalf("close reported %d queries, want 3", n)
	}
	if got := srv.Sessions(); got != 0 {
		t.Fatalf("sessions after close = %d, want 0", got)
	}
	// The dead session is gone server-side.
	if _, err := ep.Call("server", MsgQuery, QueryRequest{SessionID: "server/s00000001", SQL: "SELECT 1 FROM t"}, 8); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("query on closed session: got %v, want ErrUnknownSession", err)
	}
}

func TestOpenRejectsUnknownClass(t *testing.T) {
	_, ep := attach(t, &stubBackend{}, Config{})
	cl := NewClient(ep, "server")
	if err := cl.Open("", "premium", ""); err == nil {
		t.Fatal("open with unknown class succeeded")
	}
}

func TestSessionTableBound(t *testing.T) {
	_, ep := attach(t, &stubBackend{}, Config{MaxSessions: 2})
	for i := 0; i < 2; i++ {
		if err := NewClient(ep, "server").Open("", "", ""); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	err := NewClient(ep, "server").Open("", "", "")
	if !Overloaded(err) {
		t.Fatalf("third open: got %v, want ErrOverloaded", err)
	}
}

// TestWeightedAdmissionFairness drives both classes through a saturated
// one-worker admitter and checks the stride scheduler grants roughly
// weight-proportional shares.
func TestWeightedAdmissionFairness(t *testing.T) {
	m := newMetrics(nil)
	cfg := Config{Workers: 1, QueueDepth: 1024, InteractiveWeight: 4, BatchWeight: 1,
		// Budgets high enough that nothing sheds in this test.
		ShedP95: time.Hour, ShedP99: time.Hour, ShedWindow: time.Second, MinShedSamples: 1 << 30}.withDefaults()
	a := newAdmitter(cfg, m)

	var grants [numClasses]atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for class := 0; class < numClasses; class++ {
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(class int) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_, release, err := a.admit(class)
					if err != nil {
						return
					}
					grants[class].Add(1)
					time.Sleep(200 * time.Microsecond) // hold the worker
					release()
				}
			}(class)
		}
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	a.close()

	inter, batch := grants[classInteractive].Load(), grants[classBatch].Load()
	if inter == 0 || batch == 0 {
		t.Fatalf("starvation: interactive=%d batch=%d", inter, batch)
	}
	ratio := float64(inter) / float64(batch)
	// Weight ratio is 4:1; allow generous scheduling noise.
	if ratio < 2 || ratio > 8 {
		t.Fatalf("grant ratio %.2f (interactive=%d batch=%d), want ~4", ratio, inter, batch)
	}
}

// TestChaosServingShedsUnderSlowBackend saturates a tier whose backend
// is artificially slow and asserts (a) arrivals beyond the budget are
// rejected with the typed ErrOverloaded, (b) the shed counters moved,
// and (c) the tier recovers once the overload stops.
func TestChaosServingShedsUnderSlowBackend(t *testing.T) {
	be := &stubBackend{delay: 20 * time.Millisecond}
	srv, ep := attach(t, be, Config{
		Workers:        2,
		QueueDepth:     512,
		ShedP95:        5 * time.Millisecond,
		ShedP99:        10 * time.Millisecond,
		ShedWindow:     200 * time.Millisecond,
		MinShedSamples: 4,
	})

	const clients = 64
	var wg sync.WaitGroup
	var shed, served, other atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := NewClient(ep, "server")
			if err := cl.Open("", ClassInteractive, ""); err != nil {
				other.Add(1)
				return
			}
			for i := 0; i < 6; i++ {
				_, err := cl.Query(fmt.Sprintf("SELECT %d FROM t", c), CacheBypass)
				switch {
				case err == nil:
					served.Add(1)
				case Overloaded(err):
					shed.Add(1)
				default:
					other.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	if other.Load() != 0 {
		t.Fatalf("%d queries failed with untyped errors", other.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no queries served at all — shedding is not graceful")
	}
	if shed.Load() == 0 {
		t.Fatalf("no queries shed despite %d clients on 2 slow workers", clients)
	}
	if srv.m.shed[classInteractive].Value() == 0 {
		t.Fatal("typed rejections not counted in telemetry")
	}

	// Recovery: overload gone, the shedding window ages out, and a lone
	// client is admitted again.
	be.delay = 0
	deadline := time.Now().Add(5 * time.Second)
	cl := NewClient(ep, "server")
	if err := cl.Open("", ClassInteractive, ""); err != nil {
		t.Fatalf("open after overload: %v", err)
	}
	for {
		_, err := cl.Query("SELECT 1 FROM t", CacheBypass)
		if err == nil {
			break
		}
		if !Overloaded(err) {
			t.Fatalf("recovery query: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("tier never recovered after overload ended")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConcurrentSessions exercises the whole tier under -race: many
// sessions across both classes opening, querying with mixed cache
// modes, and closing concurrently while versions bump underneath.
func TestConcurrentSessions(t *testing.T) {
	vs := &tableVersionSource{}
	be := &stubBackend{}
	_, ep := attach(t, be, Config{Workers: 4, TableVersions: vs.get, CacheEntries: 16})

	const clients = 32
	var wg sync.WaitGroup
	var failures atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			class := ClassInteractive
			if c%3 == 0 {
				class = ClassBatch
			}
			cl := NewClient(ep, "server")
			if err := cl.Open("", class, ""); err != nil {
				failures.Add(1)
				return
			}
			for i := 0; i < 20; i++ {
				mode := CacheMode(i % 3)
				if _, err := cl.Query(fmt.Sprintf("SELECT c%d FROM t%d", i%4, c%8), mode); err != nil && !Overloaded(err) {
					failures.Add(1)
				}
				if i%7 == 0 {
					vs.bump(fmt.Sprintf("t%d", c%8))
				}
			}
			if _, err := cl.Close(); err != nil {
				failures.Add(1)
			}
		}(c)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d unexpected failures across concurrent sessions", failures.Load())
	}
}

// TestResultCacheVersioning proves a cached result is never served
// across a schema or data version bump, and that the cache modes do
// what they say.
func TestResultCacheVersioning(t *testing.T) {
	vs := &tableVersionSource{}
	be := &stubBackend{}
	srv, ep := attach(t, be, Config{TableVersions: vs.get})
	cl := NewClient(ep, "server")
	if err := cl.Open("", "", ""); err != nil {
		t.Fatalf("open: %v", err)
	}
	const q = "SELECT COUNT(*) FROM t"

	mustQuery := func(mode CacheMode) QueryOutcome {
		t.Helper()
		out, err := cl.Query(q, mode)
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		return out
	}

	inval0 := srv.m.cacheInvalidations.Value()

	// Fill, then hit: the backend runs once.
	if out := mustQuery(CacheUse); out.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	if out := mustQuery(CacheUse); !out.CacheHit {
		t.Fatal("repeat query missed the cache")
	}
	if got := be.execs.Load(); got != 1 {
		t.Fatalf("backend executed %d times, want 1", got)
	}

	// DML bump: the stale entry must not be served.
	vs.bump("t")
	if out := mustQuery(CacheUse); out.CacheHit {
		t.Fatal("cache hit across a data version bump")
	}
	if got := be.execs.Load(); got != 2 {
		t.Fatalf("backend executed %d times after data bump, want 2", got)
	}
	if srv.m.cacheInvalidations.Value() == inval0 {
		t.Fatal("version-mismatch invalidation not counted")
	}

	// DDL bump likewise.
	vs.bumpSchema()
	if out := mustQuery(CacheUse); out.CacheHit {
		t.Fatal("cache hit across a schema version bump")
	}

	// Refresh executes even though the entry is fresh.
	before := be.execs.Load()
	if out := mustQuery(CacheRefresh); out.CacheHit {
		t.Fatal("refresh reported a cache hit")
	}
	if got := be.execs.Load(); got != before+1 {
		t.Fatalf("refresh did not execute (execs %d -> %d)", before, got)
	}
	// ... but it refilled the cache for the next CacheUse.
	if out := mustQuery(CacheUse); !out.CacheHit {
		t.Fatal("use after refresh missed")
	}

	// Bypass neither reads nor writes.
	before = be.execs.Load()
	bypassBefore := srv.m.cacheBypass.Value()
	if out := mustQuery(CacheBypass); out.CacheHit {
		t.Fatal("bypass reported a cache hit")
	}
	if got := be.execs.Load(); got != before+1 {
		t.Fatal("bypass did not execute")
	}
	if srv.m.cacheBypass.Value() != bypassBefore+1 {
		t.Fatal("bypass not counted")
	}
}

// userBackend answers with the requesting user's name as the result
// row — a stand-in for the per-role row masking data owners apply — so
// any cache leak across accounts is visible in the returned rows.
type userBackend struct{ execs atomic.Int64 }

func (b *userBackend) ServeQuery(sql, user, strategy string) (Executed, error) {
	b.execs.Add(1)
	res := &sqldb.Result{Columns: []string{"who"}, Rows: []sqlval.Row{{sqlval.Str(user)}}}
	res.Stats.BytesReturned = int64(len(user))
	return Executed{Result: res, Engine: "stub", VTime: time.Millisecond}, nil
}

// TestResultCacheUserScoped proves the cache never serves one account's
// result to another: data owners mask rows per role, so a cross-user
// hit would be an access-control bypass.
func TestResultCacheUserScoped(t *testing.T) {
	vs := &tableVersionSource{}
	be := &userBackend{}
	_, ep := attach(t, be, Config{TableVersions: vs.get})

	open := func(user string) *Client {
		t.Helper()
		cl := NewClient(ep, "server")
		if err := cl.Open(user, "", ""); err != nil {
			t.Fatalf("open %s: %v", user, err)
		}
		return cl
	}
	who := func(cl *Client, want string, wantHit bool) {
		t.Helper()
		out, err := cl.Query("SELECT name FROM t", CacheUse)
		if err != nil {
			t.Fatalf("query as %s: %v", want, err)
		}
		if out.CacheHit != wantHit {
			t.Fatalf("query as %s: hit=%v, want %v", want, out.CacheHit, wantHit)
		}
		if got := out.Result.Rows[0][0].AsString(); got != want {
			t.Fatalf("query as %s returned %s's rows (hit=%v): cross-user cache leak", want, got, out.CacheHit)
		}
	}

	alice, bob := open("alice"), open("bob")
	who(alice, "alice", false) // cold: executes and caches under alice
	// Same normalized SQL as a different user must NOT hit alice's
	// entry — bob's view of the data is masked differently.
	who(bob, "bob", false)
	if got := be.execs.Load(); got != 2 {
		t.Fatalf("backend executed %d times, want 2 (one per user)", got)
	}
	// Each account's own entry still hits, with its own rows.
	who(alice, "alice", true)
	who(bob, "bob", true)
	if got := be.execs.Load(); got != 2 {
		t.Fatalf("backend executed %d times after warm repeats, want 2", got)
	}
}

// TestStrideActivationAvoidsBurst pins the stride activation rule:
// after sustained single-class saturation inflates the interactive pass
// value, newly arriving batch work must join at the scheduler's current
// virtual time and interleave at the configured weights — not replay
// every grant it missed while idle as one consecutive burst.
func TestStrideActivationAvoidsBurst(t *testing.T) {
	m := newMetrics(nil)
	cfg := Config{Workers: 1, QueueDepth: 1024, InteractiveWeight: 4, BatchWeight: 1,
		ShedP95: time.Hour, ShedP99: time.Hour, MinShedSamples: 1 << 30}.withDefaults()
	a := newAdmitter(cfg, m)

	waitDepth := func(class, want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			a.mu.Lock()
			n := len(a.classes[class].waiters)
			a.mu.Unlock()
			if n == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("queue depth for class %d never reached %d (at %d)", class, want, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Hold the single worker slot, then run 40 back-to-back interactive
	// grants with the system never going idle (one waiter is always
	// queued when the slot frees), so the interactive pass value climbs
	// while batch sits idle.
	_, release, err := a.admit(classInteractive)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		relCh := make(chan func(), 1)
		go func() {
			_, rel, err := a.admit(classInteractive)
			if err != nil {
				t.Error(err)
				return
			}
			relCh <- rel
		}()
		waitDepth(classInteractive, 1)
		release()
		release = <-relCh
	}

	// With the slot still held, queue a batch/interactive mix, then let
	// the cascade of grants drain it, recording grant order.
	const nBatch, nInter = 4, 12
	order := make(chan int, nBatch+nInter)
	var wg sync.WaitGroup
	for i := 0; i < nBatch+nInter; i++ {
		class := classBatch
		if i >= nBatch {
			class = classInteractive
		}
		wg.Add(1)
		go func(class int) {
			defer wg.Done()
			_, rel, err := a.admit(class)
			if err != nil {
				t.Error(err)
				return
			}
			order <- class
			rel()
		}(class)
	}
	waitDepth(classBatch, nBatch)
	waitDepth(classInteractive, nInter)
	release()
	wg.Wait()
	close(order)

	grants := make([]int, 0, nBatch+nInter)
	for class := range order {
		grants = append(grants, class)
	}
	batchEarly := 0
	for _, class := range grants[:8] {
		if class == classBatch {
			batchEarly++
		}
	}
	// At 4:1 weights, 8 grants carry at most 2 batch dispatches; the
	// stale-pass bug front-loads all 4 batch waiters instead.
	if batchEarly > 2 {
		t.Fatalf("batch got %d of the first 8 grants (order %v): idle class banked stride credit", batchEarly, grants)
	}
	a.close()
}

// TestResultCacheLRUBound fills the cache past capacity and checks the
// LRU eviction and the entry gauge.
func TestResultCacheLRUBound(t *testing.T) {
	vs := &tableVersionSource{}
	srv, ep := attach(t, &stubBackend{}, Config{TableVersions: vs.get, CacheEntries: 4})
	cl := NewClient(ep, "server")
	if err := cl.Open("", "", ""); err != nil {
		t.Fatalf("open: %v", err)
	}
	// Counters live in the process-wide default registry, so assert the
	// delta, not the absolute value.
	evict0 := srv.m.cacheEvictions.Value()
	for i := 0; i < 8; i++ {
		if _, err := cl.Query(fmt.Sprintf("SELECT c FROM t%d", i), CacheUse); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if got := srv.cache.len(); got != 4 {
		t.Fatalf("cache holds %d entries, want 4", got)
	}
	if got := srv.m.cacheEvictions.Value() - evict0; got != 4 {
		t.Fatalf("evictions = %d, want 4", got)
	}
	// The oldest keys were evicted; the newest still hit.
	if out, err := cl.Query("SELECT c FROM t7", CacheUse); err != nil || !out.CacheHit {
		t.Fatalf("newest entry missed (err=%v)", err)
	}
	if out, err := cl.Query("SELECT c FROM t0", CacheUse); err != nil || out.CacheHit {
		t.Fatalf("evicted entry hit (err=%v)", err)
	}
}

// TestOverloadedSurvivesTCP proves the typed serving errors cross the
// gob/TCP transport via the wire-sentinel registry.
func TestOverloadedSurvivesTCP(t *testing.T) {
	serverNet := pnet.NewNetwork()
	// Session table of 1: the second open sheds with ErrOverloaded.
	srv := Attach(serverNet.Join("server"), &stubBackend{}, Config{MaxSessions: 1})
	defer srv.Close()
	ln, err := serverNet.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	clientNet := pnet.NewNetwork()
	clientNet.AddRemotePeer("server", ln.Addr())
	ep := clientNet.Join("remote-client")

	cl := NewClient(ep, "server")
	if err := cl.Open("", "", ""); err != nil {
		t.Fatalf("open over TCP: %v", err)
	}
	out, err := cl.Query("SELECT COUNT(*) FROM t", CacheBypass)
	if err != nil {
		t.Fatalf("query over TCP: %v", err)
	}
	if out.Engine != "stub" {
		t.Fatalf("engine = %q over TCP", out.Engine)
	}

	if err := NewClient(ep, "server").Open("", "", ""); !Overloaded(err) {
		t.Fatalf("second open over TCP: got %v, want ErrOverloaded", err)
	}
	bogus := &Client{ep: ep, peer: "server", id: "server/s99999999"}
	if _, err := bogus.Query("SELECT 1 FROM t", CacheBypass); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("bogus session over TCP: got %v, want ErrUnknownSession", err)
	}
}

// TestCloseRejectsWaiters closes the tier with queued waiters and
// checks they all fail fast and typed.
func TestCloseRejectsWaiters(t *testing.T) {
	be := &stubBackend{delay: 50 * time.Millisecond}
	srv, ep := attach(t, be, Config{Workers: 1, ShedP95: time.Hour, ShedP99: time.Hour, MinShedSamples: 1 << 30})
	var wg sync.WaitGroup
	var typed, untyped atomic.Int64
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := NewClient(ep, "server")
			if err := cl.Open("", "", ""); err != nil {
				untyped.Add(1)
				return
			}
			if _, err := cl.Query("SELECT 1 FROM t", CacheBypass); err != nil {
				if Overloaded(err) {
					typed.Add(1)
				} else {
					untyped.Add(1)
				}
			}
		}(c)
	}
	time.Sleep(20 * time.Millisecond) // let queries queue behind the slow worker
	srv.Close()
	wg.Wait()
	if untyped.Load() != 0 {
		t.Fatalf("%d untyped failures on close", untyped.Load())
	}
	if typed.Load() == 0 {
		t.Fatal("close rejected no queued waiters (test raced shut)")
	}
}

// tableVersionSource is a mutable per-table version map for precise
// invalidation tests.
type tableVersionSource struct {
	mu      sync.Mutex
	schemaV uint64
	data    map[string]uint64
}

func (v *tableVersionSource) get(tables []string) (uint64, []uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	vec := make([]uint64, len(tables))
	for i, t := range tables {
		vec[i] = v.data[t]
	}
	return v.schemaV, vec
}

func (v *tableVersionSource) bump(table string) {
	v.mu.Lock()
	if v.data == nil {
		v.data = map[string]uint64{}
	}
	v.data[table]++
	v.mu.Unlock()
}

func (v *tableVersionSource) bumpSchema() {
	v.mu.Lock()
	v.schemaV++
	v.mu.Unlock()
}

// TestResultCachePreciseInvalidation proves entries are stamped with
// the version vector of the tables they read: DML against an unrelated
// table keeps the hit, DML against a read table drops it.
func TestResultCachePreciseInvalidation(t *testing.T) {
	vs := &tableVersionSource{}
	be := &stubBackend{}
	srv, ep := attach(t, be, Config{TableVersions: vs.get})
	cl := NewClient(ep, "server")
	if err := cl.Open("", "", ""); err != nil {
		t.Fatalf("open: %v", err)
	}
	const qOrders = "SELECT COUNT(*) FROM orders"
	const qItems = "SELECT COUNT(*) FROM lineitem"

	mustQuery := func(q string) QueryOutcome {
		t.Helper()
		out, err := cl.Query(q, CacheUse)
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		return out
	}

	// Warm both entries, confirm both hit.
	mustQuery(qOrders)
	mustQuery(qItems)
	if out := mustQuery(qOrders); !out.CacheHit {
		t.Fatal("orders entry did not hit after warm")
	}
	if out := mustQuery(qItems); !out.CacheHit {
		t.Fatal("lineitem entry did not hit after warm")
	}

	// DML on orders: the orders entry invalidates, the lineitem entry
	// survives — the scoped-invalidation fix.
	vs.bump("orders")
	if out := mustQuery(qItems); !out.CacheHit {
		t.Fatal("unrelated DML invalidated the lineitem entry")
	}
	if out := mustQuery(qOrders); out.CacheHit {
		t.Fatal("stale orders entry served after DML on orders")
	}
	if out := mustQuery(qOrders); !out.CacheHit {
		t.Fatal("orders entry did not re-warm under the new vector")
	}

	// A join reading both tables invalidates when either side moves.
	const qJoin = "SELECT COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey"
	mustQuery(qJoin)
	if out := mustQuery(qJoin); !out.CacheHit {
		t.Fatal("join entry did not hit")
	}
	vs.bump("lineitem")
	if out := mustQuery(qJoin); out.CacheHit {
		t.Fatal("join entry survived DML on one of its tables")
	}

	// Schema bumps still invalidate everything they cover.
	mustQuery(qItems)
	vs.bumpSchema()
	if out := mustQuery(qItems); out.CacheHit {
		t.Fatal("entry survived a schema bump")
	}
	if srv.m.cacheInvalidations.Value() == 0 {
		t.Fatal("invalidations not counted")
	}
}

package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bestpeer/internal/sqldb"
)

// TestFanOutIndexOrderedSlots proves the slots come back in index order
// regardless of completion order: later indexes finish first.
func TestFanOutIndexOrderedSlots(t *testing.T) {
	const n = 16
	got, err := FanOut(n, func(i int) (int, error) {
		time.Sleep(time.Duration(n-i) * time.Millisecond)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("slot %d holds %d", i, v)
		}
	}
}

// TestFanOutLowestIndexErrorWins proves the deterministic error choice:
// whatever completes first, the error at the lowest index is returned —
// the same one the sequential loop would have surfaced — so a data
// owner's ErrSnapshotNewer keeps winning (Definition 2 resubmission).
func TestFanOutLowestIndexErrorWins(t *testing.T) {
	late := fmt.Errorf("wrapped: %w", ErrSnapshotNewer)
	early := errors.New("fast unrelated failure")
	for trial := 0; trial < 5; trial++ {
		_, err := FanOut(8, func(i int) (int, error) {
			switch i {
			case 2:
				time.Sleep(20 * time.Millisecond) // slow, lowest-index error
				return 0, late
			case 6:
				return 0, early // fails immediately
			}
			return i, nil
		})
		if !errors.Is(err, ErrSnapshotNewer) {
			t.Fatalf("trial %d: got %v, want the index-2 snapshot error", trial, err)
		}
	}
}

// barrierBackend wraps the TPC-H test backend with a rendezvous: every
// SubQuery blocks until all data owners' calls are in flight at once,
// so the query can only complete when the engine drives the owners from
// multiple goroutines. A sequential engine deadlocks and trips the
// timeout error instead.
type barrierBackend struct {
	*testBackend
	want    int32
	arrived atomic.Int32
	release chan struct{}
}

func (b *barrierBackend) SubQuery(peer string, req SubQueryRequest) (*sqldb.Result, error) {
	if b.arrived.Add(1) == b.want {
		close(b.release)
	}
	select {
	case <-b.release:
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("fan-out barrier: call to %s alone in flight; engine is not concurrent", peer)
	}
	return b.testBackend.SubQuery(peer, req)
}

// TestBasicFetchRunsConcurrently proves the fetch round really
// dispatches to all data owners at once (§5.2's parallel fetch).
func TestBasicFetchRunsConcurrently(t *testing.T) {
	inner, _ := newTPCHBackend(t, 8, 0.001)
	b := &barrierBackend{testBackend: inner, want: 8, release: make(chan struct{})}
	stmt, err := sqldb.ParseSelect("SELECT l_orderkey FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	e := &Basic{B: b}
	qr, err := e.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if qr.SubQueries != 8 {
		t.Fatalf("SubQueries = %d, want 8", qr.SubQueries)
	}
}

// jitterBackend delays every SubQuery and JoinAt by a pseudo-random
// amount drawn from a seeded source, so the order in which a fan-out
// round's calls complete changes from seed to seed. It logs the peers
// in completion order.
type jitterBackend struct {
	*testBackend
	mu   sync.Mutex
	rng  *rand.Rand
	done []string
}

func (b *jitterBackend) wait(peer string) func() {
	b.mu.Lock()
	d := time.Duration(b.rng.Intn(3000)) * time.Microsecond
	b.mu.Unlock()
	time.Sleep(d)
	return func() {
		b.mu.Lock()
		b.done = append(b.done, peer)
		b.mu.Unlock()
	}
}

func (b *jitterBackend) SubQuery(peer string, req SubQueryRequest) (*sqldb.Result, error) {
	defer b.wait(peer)()
	return b.testBackend.SubQuery(peer, req)
}

func (b *jitterBackend) JoinAt(peer string, task JoinTask) (*sqldb.Result, error) {
	defer b.wait(peer)()
	return b.testBackend.JoinAt(peer, task)
}

// TestConcurrentExecutionDeterministic proves the tentpole invariant:
// the rows, virtual-time cost, pay-as-you-go charge and counters of a
// fan-out query do not depend on the order its remote calls complete
// in, for every paper query on both distributed engines. Each seed
// reorders completions differently; every run must equal the undelayed
// one.
func TestConcurrentExecutionDeterministic(t *testing.T) {
	b, _ := newTPCHBackend(t, 4, 0.002)
	queries := paperQueries()
	names := make([]string, 0, len(queries))
	for name := range queries {
		names = append(names, name)
	}
	sort.Strings(names)
	execute := func(b Backend, engine string, stmt *sqldb.SelectStmt) (*QueryResult, error) {
		if engine == "basic" {
			return (&Basic{B: b}).Execute(stmt)
		}
		return (&Parallel{B: b}).Execute(stmt)
	}
	orders := make(map[string]bool)
	for seed := int64(1); seed <= 3; seed++ {
		jb := &jitterBackend{testBackend: b, rng: rand.New(rand.NewSource(seed))}
		for _, name := range names {
			stmt, err := sqldb.ParseSelect(queries[name])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, engine := range []string{"basic", "parallel"} {
				want, err := execute(b, engine, stmt)
				if err != nil {
					t.Fatalf("%s on undelayed %s: %v", name, engine, err)
				}
				got, err := execute(jb, engine, stmt)
				if err != nil {
					t.Fatalf("seed %d: %s on delayed %s: %v", seed, name, engine, err)
				}
				id := fmt.Sprintf("seed %d %s/%s", seed, name, engine)
				if !reflect.DeepEqual(want.Result.Rows, got.Result.Rows) {
					t.Errorf("%s: rows differ from the undelayed run", id)
				}
				if !reflect.DeepEqual(want.Result.Columns, got.Result.Columns) {
					t.Errorf("%s: columns differ", id)
				}
				if want.Cost != got.Cost {
					t.Errorf("%s: cost %v != %v", id, want.Cost, got.Cost)
				}
				if want.PayGoUnits != got.PayGoUnits {
					t.Errorf("%s: paygo %v != %v", id, want.PayGoUnits, got.PayGoUnits)
				}
				if want.SubQueries != got.SubQueries || want.BytesFetched != got.BytesFetched || want.BytesScanned != got.BytesScanned {
					t.Errorf("%s: counters differ: %+v vs %+v", id, want, got)
				}
			}
		}
		orders[fmt.Sprint(jb.done)] = true
	}
	if len(orders) < 2 {
		t.Error("every seed completed the calls in the same order; the delays reorder nothing")
	}
}

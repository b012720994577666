package baton

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bestpeer/internal/telemetry"
)

// TestAdjacentReplicaDeltaCoalescing: per-mutation pushes to the
// adjacent replica ship sequence-numbered deltas, not the full item
// set — the byte-savings counter grows with the replica — and the
// copy stays exact, proven by recovering a crashed node from it.
func TestAdjacentReplicaDeltaCoalescing(t *testing.T) {
	deltasBefore := telemetry.Default.Counter("baton_replica_push_total", telemetry.L("kind", "delta")).Value()
	savedBefore := telemetry.Default.Counter("baton_replica_push_saved_bytes_total").Value()

	o, nodes, net := testOverlay(t, 6)
	for i := 0; i < 60; i++ {
		k := Key(float64(i) / 60)
		if _, err := nodes["peer-00"].Insert(Item{Key: k, Name: fmt.Sprintf("it-%d", i), Size: 64}); err != nil {
			t.Fatal(err)
		}
	}
	if got := telemetry.Default.Counter("baton_replica_push_total", telemetry.L("kind", "delta")).Value(); got == deltasBefore {
		t.Error("no delta pushes across 60 mutations")
	}
	if got := telemetry.Default.Counter("baton_replica_push_saved_bytes_total").Value(); got <= savedBefore {
		t.Error("delta coalescing saved no bytes over full resyncs")
	}

	// The deltas must have kept the replica exact: crash a loaded node
	// and recover it purely from its neighbour's copy.
	var victim string
	for id, n := range nodes {
		if n.NumItems() > 0 {
			victim = id
			break
		}
	}
	lost := nodes[victim].NumItems()
	net.SetDown(victim, true)
	replacement := NewNode(net.Join(victim + "-replacement"))
	if err := o.Recover(victim, replacement); err != nil {
		t.Fatal(err)
	}
	delete(nodes, victim)
	nodes[victim+"-replacement"] = replacement
	if replacement.NumItems() != lost {
		t.Errorf("recovered %d items from the delta-maintained replica, want %d", replacement.NumItems(), lost)
	}
	if err := o.CheckInvariants(nodes); err != nil {
		t.Fatal(err)
	}
}

// itemIdent identifies one stored entry for recovery checks.
type itemIdent struct {
	Key   Key
	Name  string
	Owner string
}

// identCounts counts items by (key, name, owner); a duplicate counts
// twice.
func identCounts(items []Item) map[itemIdent]int {
	out := make(map[itemIdent]int, len(items))
	for _, it := range items {
		out[itemIdent{Key: it.Key, Name: it.Name, Owner: it.Owner}]++
	}
	return out
}

// churnAroundShift drives a seeded mix of inserts and deletes through
// the overlay — most inserts into the "hot:" key band, which one node
// owns, some re-publishing a live name under another owner, deletes
// both owner-selective and any-owner — then a BalanceAdjacent pass
// whose boundary shifts ship cut deltas from the shedding node and add
// deltas to the receiving ones, then more churn on top of the shifted
// ranges. It returns the entries that should be live.
func churnAroundShift(t *testing.T, seed int64, o *Overlay, nodes map[string]*Node) []Item {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := o.Members()
	var live []Item
	churn := func(ops int) {
		for i := 0; i < ops; i++ {
			at := nodes[ids[rng.Intn(len(ids))]]
			if len(live) > 0 && rng.Intn(4) == 0 {
				victim := live[rng.Intn(len(live))]
				owner := victim.Owner
				if rng.Intn(2) == 0 {
					owner = ""
				}
				if _, _, err := at.Delete(victim.Name, owner); err != nil {
					t.Fatal(err)
				}
				kept := live[:0]
				for _, it := range live {
					if it.Name != victim.Name || (owner != "" && it.Owner != owner) {
						kept = append(kept, it)
					}
				}
				live = kept
				continue
			}
			var name string
			switch r := rng.Intn(8); {
			case r == 0 && len(live) > 0:
				name = live[rng.Intn(len(live))].Name
			case r < 6:
				name = fmt.Sprintf("hot:%04d", rng.Intn(10000))
			default:
				name = fmt.Sprintf("%c%07d", 'a'+rng.Intn(26), rng.Intn(10000000))
			}
			it := Item{Key: StringKey(name), Name: name, Owner: at.ID(), Size: 16}
			if _, err := at.Insert(it); err != nil {
				t.Fatal(err)
			}
			live = append(live, it)
		}
	}

	churn(40)
	deltas := telemetry.Default.Counter("baton_replica_push_total", telemetry.L("kind", "delta"))
	before := deltas.Value()
	shifts, err := o.BalanceAdjacent()
	if err != nil {
		t.Fatal(err)
	}
	if shifts == 0 {
		t.Fatal("no boundary shift on the hot band")
	}
	if got := deltas.Value() - before; got != int64(2*shifts) {
		t.Fatalf("%d boundary shifts shipped %d deltas, want one cut and one add each", shifts, got)
	}
	churn(20)
	if err := o.CheckInvariants(nodes); err != nil {
		t.Fatal(err)
	}
	return live
}

// TestRecoveryAfterDeletesAndBoundaryShift: the adjacent replica stays
// an exact copy through every delta kind — add, del (owner-selective
// and any-owner) and the cut/add pair a balancing boundary shift ships —
// with no full resync to paper over a bad delta. Crashing any node
// afterwards, Recover restores exactly its entries, compared by (key,
// name, owner).
func TestRecoveryAfterDeletesAndBoundaryShift(t *testing.T) {
	full := telemetry.Default.Counter("baton_replica_push_total", telemetry.L("kind", "full"))
	for seed := int64(1); seed <= 3; seed++ {
		for v := 0; v < 6; v++ {
			o, nodes, net := testOverlay(t, 6)
			fullBefore := full.Value()
			live := churnAroundShift(t, seed, o, nodes)
			if got := full.Value() - fullBefore; got != 0 {
				t.Fatalf("seed %d: %d full resyncs during churn; the deltas alone must keep replicas exact", seed, got)
			}

			victim := o.Members()[v]
			want := identCounts(itemsOf(nodes[victim]))
			net.SetDown(victim, true)
			replacement := NewNode(net.Join(victim + "-replacement"))
			if err := o.Recover(victim, replacement); err != nil {
				t.Fatal(err)
			}
			delete(nodes, victim)
			nodes[victim+"-replacement"] = replacement
			if got := identCounts(itemsOf(replacement)); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, victim %s: recovered %v, want %v", seed, victim, got, want)
			}
			if err := o.CheckInvariants(nodes); err != nil {
				t.Fatal(err)
			}
			all, _, err := replacement.RangeSearch(FullRange())
			if err != nil {
				t.Fatal(err)
			}
			if got := identCounts(all); !reflect.DeepEqual(got, identCounts(live)) {
				t.Fatalf("seed %d, victim %s: overlay holds %v after recovery, want %v", seed, victim, got, identCounts(live))
			}
		}
	}
}

// TestRecoveryAfterJoinMovesHolder: the rightmost node's replica lives
// on its in-order predecessor, so a join that slots a new predecessor
// in front of it (or makes the joiner the new rightmost node) moves the
// holder without touching the successor link. The node must resync to
// the new holder, or a crash right after the join recovers nothing.
func TestRecoveryAfterJoinMovesHolder(t *testing.T) {
	for size := 2; size <= 9; size++ {
		o, nodes, net := testOverlay(t, size)
		for i := 0; i < 200; i++ {
			k := Key(float64(i) / 200)
			if _, err := nodes["peer-00"].Insert(Item{Key: k, Name: fmt.Sprintf("it-%03d", i), Size: 4}); err != nil {
				t.Fatal(err)
			}
		}
		joiner := NewNode(net.Join(fmt.Sprintf("peer-%02d", size)))
		if err := o.AddNode(joiner); err != nil {
			t.Fatal(err)
		}
		nodes[joiner.ID()] = joiner

		members := o.Members()
		victim := members[len(members)-1]
		want := identCounts(itemsOf(nodes[victim]))
		net.SetDown(victim, true)
		replacement := NewNode(net.Join(victim + "-replacement"))
		if err := o.Recover(victim, replacement); err != nil {
			t.Fatal(err)
		}
		if got := identCounts(itemsOf(replacement)); !reflect.DeepEqual(got, want) {
			t.Errorf("%d+1 nodes: recovered %d of rightmost %s's %d items", size, len(got), victim, len(want))
		}
	}
}
